// Clang thread-safety annotations and the annotated mutex wrappers the
// repo's mutex-protected structures use (ThreadPool, EmpiricalCdf's
// lazy-sort mutex, the experiment farm's journal).
//
// The macros expand to clang's capability attributes so that building with
//   -Wthread-safety -Werror=thread-safety   (the `analyze` CMake preset)
// turns lock misuse — touching a DARE_GUARDED_BY member without its mutex,
// releasing a lock twice, calling a DARE_REQUIRES function unlocked — into a
// compile error before tsan ever has to catch an unlucky interleaving. On
// non-clang compilers every macro expands to nothing and `Mutex` is a plain
// std::mutex wrapper, so gcc builds are unaffected.
//
// libstdc++'s std::mutex carries no capability attributes, so the analysis
// cannot see through std::lock_guard/std::unique_lock. Annotated code must
// therefore use the wrappers below:
//
//   dare::Mutex            an annotated DARE_CAPABILITY("mutex")
//   dare::MutexLock        std::lock_guard equivalent (scoped capability)
//   dare::UniqueMutexLock  unlockable guard usable with
//                          std::condition_variable_any via native()
//   dare::DualMutexLock    deadlock-free two-mutex guard (std::lock order)
#pragma once

#include <mutex>

#if defined(__clang__)
#define DARE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DARE_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define DARE_CAPABILITY(x) DARE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define DARE_SCOPED_CAPABILITY \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Member may only be touched while holding the given mutex.
#define DARE_GUARDED_BY(x) DARE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointee (not the pointer) is protected by the given mutex.
#define DARE_PT_GUARDED_BY(x) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the caller to already hold the mutex(es).
#define DARE_REQUIRES(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires the mutex(es) and holds them on return.
#define DARE_ACQUIRE(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es).
#define DARE_RELEASE(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns the given value.
#define DARE_TRY_ACQUIRE(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the mutex(es) (deadlock documentation).
#define DARE_EXCLUDES(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations for deadlock detection.
#define DARE_ACQUIRED_BEFORE(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define DARE_ACQUIRED_AFTER(...) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define DARE_RETURN_CAPABILITY(x) \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: suppress the analysis for one function. Every use must
/// carry a justification comment (enforced by dare_lint's
/// suppression-hygiene rule, same as NOLINT).
#define DARE_NO_THREAD_SAFETY_ANALYSIS \
  DARE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace dare {

/// std::mutex with capability attributes so clang's analysis can track it.
class DARE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DARE_ACQUIRE() { m_.lock(); }
  void unlock() DARE_RELEASE() { m_.unlock(); }
  bool try_lock() DARE_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// Scoped lock (std::lock_guard equivalent) visible to the analysis.
class DARE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) DARE_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() DARE_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Scoped lock that additionally satisfies BasicLockable, so a
/// std::condition_variable_any can wait on it directly:
///
///   UniqueMutexLock lock(mutex_);
///   while (!ready_) cv_.wait(lock);
///
/// The capability is treated as held for the guard's whole lifetime, which
/// matches what callers may rely on: a wait releases the mutex only while
/// blocked and reacquires it before returning.
class DARE_SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(Mutex& mutex) DARE_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~UniqueMutexLock() DARE_RELEASE() { mutex_.unlock(); }

  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  /// BasicLockable surface for condition_variable_any::wait only: the wait
  /// transiently unlocks and relocks while the analysis keeps treating the
  /// capability as held (true on both sides of the wait). Analysis is off
  /// here because a bare lock() would otherwise look like a leaked capability.
  void lock() DARE_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  void unlock() DARE_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }  // ditto

 private:
  Mutex& mutex_;
};

/// Locks two *distinct* mutexes deadlock-free via address ordering, e.g.
/// for copy-assignment between two lock-protected objects. Passing the same
/// mutex twice would self-deadlock; callers must rule that out (the
/// self-assignment check does).
class DARE_SCOPED_CAPABILITY DualMutexLock {
 public:
  DualMutexLock(Mutex& a, Mutex& b) DARE_ACQUIRE(a, b) : a_(a), b_(b) {
    if (&a_ < &b_) {
      a_.lock();
      b_.lock();
    } else {
      b_.lock();
      a_.lock();
    }
  }
  ~DualMutexLock() DARE_RELEASE() {
    a_.unlock();
    b_.unlock();
  }

  DualMutexLock(const DualMutexLock&) = delete;
  DualMutexLock& operator=(const DualMutexLock&) = delete;

 private:
  Mutex& a_;
  Mutex& b_;
};

}  // namespace dare
