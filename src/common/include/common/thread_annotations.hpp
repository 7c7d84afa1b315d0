// Clang thread-safety annotations + the annotated mutex primitives.
//
// Worker threads run strip kernels concurrently, and that rests on one
// convention: every field a worker may touch is laned per strip, a
// relaxed atomic, or guarded by a named mutex. The only mutexes left
// are the metrics registry's and for_each_claimed's first-failure slot.
// These macros turn their locking into declarations the compiler
// checks: every guarded field says which lock protects it
// (D2DHB_GUARDED_BY), every method that assumes a lock says so
// (D2DHB_REQUIRES), and the dedicated CI leg compiles the whole tree
// with `-Wthread-safety -Wthread-safety-beta` promoted to errors.
//
// Under any non-Clang compiler every macro expands to nothing, so the
// annotations are free for the GCC release/sanitizer builds — only
// the Clang analysis leg interprets them.
//
// Use the wrappers, not std::mutex: Clang's analysis only understands
// lockables whose operations carry capability attributes, and
// libstdc++'s std::mutex has none. d2dhb::Mutex is a zero-overhead
// annotated shell around std::mutex; d2dhb::MutexLock is the
// lock_guard replacement.
//
// Annotation cheat sheet:
//   D2DHB_CAPABILITY("mutex")      class is a lockable capability
//   D2DHB_SCOPED_CAPABILITY        RAII object acquiring in ctor
//   D2DHB_GUARDED_BY(mu)           field needs mu held to touch
//   D2DHB_REQUIRES(mu)             caller must already hold mu
//   D2DHB_ACQUIRE(mu) / D2DHB_RELEASE(mu)  function takes / drops mu
//   D2DHB_EXCLUDES(mu)             caller must NOT hold mu (deadlock
//                                  guard for self-locking methods)
//
// The CI leg's contract is zero suppressions: restructure the code
// instead of silencing the analysis (see DESIGN.md §14).
#pragma once

#include <mutex>

#if defined(__clang__)
#define D2DHB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define D2DHB_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define D2DHB_CAPABILITY(x) D2DHB_THREAD_ANNOTATION(capability(x))
#define D2DHB_SCOPED_CAPABILITY D2DHB_THREAD_ANNOTATION(scoped_lockable)
#define D2DHB_GUARDED_BY(x) D2DHB_THREAD_ANNOTATION(guarded_by(x))
#define D2DHB_ACQUIRE(...) \
  D2DHB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define D2DHB_RELEASE(...) \
  D2DHB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define D2DHB_REQUIRES(...) \
  D2DHB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define D2DHB_EXCLUDES(...) D2DHB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace d2dhb {

/// std::mutex with capability attributes, so Clang can check that
/// every D2DHB_GUARDED_BY field is only touched under it. Identical
/// layout and cost; never use std::mutex directly in annotated types.
class D2DHB_CAPABILITY("mutex") Mutex {
 public:
  void lock() D2DHB_ACQUIRE() { mutex_.lock(); }
  void unlock() D2DHB_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock for d2dhb::Mutex — the lock_guard replacement.
class D2DHB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) D2DHB_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() D2DHB_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace d2dhb
