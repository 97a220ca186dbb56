// Clang thread-safety annotation macros plus capability-annotated mutex
// wrappers, in the style of abseil's thread_annotations.h / LLVM's
// Threading support headers.
//
// Under Clang with -Wthread-safety (the XREFINE_THREAD_SAFETY CMake option
// promotes it to an error) the annotations turn the lock discipline
// documented in header comments into a compile-time check: reading a
// GUARDED_BY member without its mutex, or calling a REQUIRES function
// without holding the capability, fails the build. Under GCC (which has no
// analysis) every macro expands to nothing and the wrappers are plain
// std::mutex pass-throughs, so the annotated code builds everywhere.
//
// Conventions in this codebase (see DESIGN.md "Static analysis & lock
// discipline"):
//   * Shared mutable members are declared `GUARDED_BY(mu_)`.
//   * Private helpers that assume the lock is held are `REQUIRES(mu_)` and
//     are only called from public entry points that take a MutexLock.
//   * Public methods that must not be called with the lock held (because
//     they take it themselves) may be annotated `LOCKS_EXCLUDED(mu_)`.
#ifndef XREFINE_COMMON_THREAD_ANNOTATIONS_H_
#define XREFINE_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && (!defined(SWIG))
#define XREFINE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define XREFINE_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

// --- Declaration-site annotations -------------------------------------------

/// Data members: protected by the given capability (mutex).
#define GUARDED_BY(x) XREFINE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer members: the pointed-to data (not the pointer) is protected.
#define PT_GUARDED_BY(x) XREFINE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Functions: the caller must hold the capability exclusively.
#define REQUIRES(...) \
  XREFINE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Functions: the caller must hold the capability at least shared.
#define REQUIRES_SHARED(...) \
  XREFINE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Functions: the caller must NOT hold the capability (the function takes
/// it itself; calling with it held would self-deadlock).
#define EXCLUDES(...) XREFINE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Alias kept for readers used to the older Clang macro name.
#define LOCKS_EXCLUDED(...) EXCLUDES(__VA_ARGS__)

/// Functions that acquire/release the capability as a side effect.
#define ACQUIRE(...) \
  XREFINE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  XREFINE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  XREFINE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  XREFINE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  XREFINE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Functions returning a reference to a capability-guarded object.
#define RETURN_CAPABILITY(x) XREFINE_THREAD_ANNOTATION_(lock_returned(x))

/// Classes that model a capability / a scoped acquisition of one.
#define CAPABILITY(x) XREFINE_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY XREFINE_THREAD_ANNOTATION_(scoped_lockable)

/// Escape hatch: disables analysis inside one function. Every use must
/// carry a comment explaining why the analysis cannot see the invariant.
#define NO_THREAD_SAFETY_ANALYSIS \
  XREFINE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace xrefine {

// --- Lock ranks (dynamic order checking) ------------------------------------
//
// The documented lock order (DESIGN.md §9: BTree latch → pager shard latch
// → io_mu_; every other mutex is leaf-level) is encoded as a total rank per
// mutex. Under -DXREFINE_DEBUG_LOCKS=ON each thread keeps a stack of the
// ranks it holds, and acquiring a mutex whose rank is not strictly greater
// than the most recently acquired one aborts the process with both mutex
// names — turning a latent deadlock into a deterministic crash at the first
// inverted acquisition, whether or not the opposing thread ever shows up.
// In every other build the rank arguments compile to nothing.
//
// Gaps are deliberate: new mutexes slot between existing levels without
// renumbering. Equal ranks can never nest (the check is strict), which also
// enforces "never two pager shard latches at once".
enum LockRank : int {
  // IndexSource::vocab_snapshot_mu_: held while a source enumerates its
  // vocabulary to build the snapshot, so it ranks below every engine latch
  // that enumeration could take.
  kLockRankVocabSnapshot = 5,
  kLockRankBTree = 10,           // BTree::mu_ (tree-wide reader/writer latch)
  kLockRankPagerShard = 20,      // Pager::Shard::mu (8 stripes, one rank)
  kLockRankPagerIo = 30,         // Pager::io_mu_
  kLockRankCooccurrence = 40,    // CooccurrenceTable::mu_ (leaf)
  kLockRankStoreSourceCache = 44,  // StoreBackedIndexSource::mu_ (leaf)
  // The result cache probe is a leaf: GetOrCompute drops mu_ before running
  // the engine, so no engine latch (10..44) is ever acquired under it.
  kLockRankResultCache = 46,     // core::RefinementCache::mu_ (leaf)
  kLockRankQueryLogRules = 48,   // XRefine::log_rules_mu_ (leaf)
  // Server mutexes rank ABOVE every engine lock: the engine's query path
  // (ranks 10..48) must always run with no server lock held, so holding a
  // queue/session latch across a query aborts under the checker instead of
  // stalling every worker behind one slow request.
  kLockRankServerQueue = 50,     // server::RequestQueue::mu_
  kLockRankServerSessions = 54,  // server::Server session-table mutex
  kLockRankServerSession = 60,   // server::Session::write_mu (per-connection)
  // Highest: the registry latch may be taken during the lazy first-use
  // registration of a metric while any other latch is held (e.g. the first
  // counter bump under a shard latch), so everything must rank below it.
  kLockRankMetricsRegistry = 90,
};

/// Rank given to default-constructed mutexes: participates in checking as a
/// leaf below the registry, so unranked ad-hoc mutexes cannot silently wrap
/// ranked ones.
inline constexpr int kLockRankUnranked = 80;

#if defined(XREFINE_DEBUG_LOCKS)
namespace lock_rank_internal {
/// Verifies `rank` is strictly above every rank this thread already holds
/// (aborting with both names otherwise), then records the acquisition.
void NoteAcquire(int rank, const char* name);
/// Removes the most recent matching acquisition from the thread's stack.
void NoteRelease(int rank, const char* name);
}  // namespace lock_rank_internal
#endif

/// std::mutex with the `mutex` capability, so members can be declared
/// GUARDED_BY(mu_) and helpers REQUIRES(mu_). Prefer MutexLock over calling
/// Lock/Unlock directly. The (rank, name) constructor places the mutex in
/// the global lock order for the XREFINE_DEBUG_LOCKS runtime checker; both
/// arguments are ignored (zero cost, zero storage) in other builds.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if defined(XREFINE_DEBUG_LOCKS)
  Mutex(int rank, const char* name) : rank_(rank), name_(name) {}

  void Lock() ACQUIRE() {
    lock_rank_internal::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lock_rank_internal::NoteRelease(rank_, name_);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank_internal::NoteAcquire(rank_, name_);
    return true;
  }
#else
  Mutex(int /*rank*/, const char* /*name*/) {}

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // BasicLockable aliases so a ranked Mutex can park a
  // std::condition_variable_any (server::RequestQueue): the condvar's
  // internal unlock/relock cycles go through the same rank bookkeeping as
  // explicit acquisitions.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

 private:
  std::mutex mu_;
#if defined(XREFINE_DEBUG_LOCKS)
  const int rank_ = kLockRankUnranked;
  const char* const name_ = "unranked Mutex";
#endif
};

/// RAII scoped acquisition of a Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// std::shared_mutex with the `mutex` capability: many concurrent readers
/// (ReaderLock) or one exclusive writer (Lock). Members read under the
/// shared side and written only under the exclusive side are declared
/// GUARDED_BY(mu_) as usual; Clang's analysis permits reads with either
/// acquisition and writes only with the exclusive one.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
#if defined(XREFINE_DEBUG_LOCKS)
  SharedMutex(int rank, const char* name) : rank_(rank), name_(name) {}

  // Shared acquisitions participate in rank checking exactly like
  // exclusive ones: a reader blocked behind a writer deadlocks the same
  // way, so the order constraint is identical.
  void Lock() ACQUIRE() {
    lock_rank_internal::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    lock_rank_internal::NoteRelease(rank_, name_);
  }
  void ReaderLock() ACQUIRE_SHARED() {
    lock_rank_internal::NoteAcquire(rank_, name_);
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank_internal::NoteRelease(rank_, name_);
  }
#else
  SharedMutex(int /*rank*/, const char* /*name*/) {}

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

 private:
  std::shared_mutex mu_;
#if defined(XREFINE_DEBUG_LOCKS)
  const int rank_ = kLockRankUnranked;
  const char* const name_ = "unranked SharedMutex";
#endif
};

/// RAII exclusive acquisition of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared (read-side) acquisition of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace xrefine

#endif  // XREFINE_COMMON_THREAD_ANNOTATIONS_H_
