#include "src/simmpi/fiber.hh"

#include <cstring>

#include "src/simmpi/errors.hh"
#include "src/util/logging.hh"

// ThreadSanitizer cannot follow a raw stack switch on its own: it keeps
// a shadow stack and a per-"fiber" happens-before clock, both keyed to
// what it believes is the current stack. Every switch is therefore
// announced through the TSAN fiber API, compiled in only under
// -fsanitize=thread (the CI TSAN lane); the plain build keeps the
// annotations compiled out entirely.
#if defined(__SANITIZE_THREAD__)
#define MATCH_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MATCH_TSAN_FIBERS 1
#endif
#endif

#ifdef MATCH_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#define MATCH_TSAN_CREATE_FIBER() __tsan_create_fiber(0)
#define MATCH_TSAN_DESTROY_FIBER(f) __tsan_destroy_fiber(f)
#define MATCH_TSAN_CURRENT_FIBER() __tsan_get_current_fiber()
#define MATCH_TSAN_SWITCH_TO_FIBER(f) __tsan_switch_to_fiber(f, 0)
#else
#define MATCH_TSAN_CREATE_FIBER() nullptr
#define MATCH_TSAN_DESTROY_FIBER(f) (void)(f)
#define MATCH_TSAN_CURRENT_FIBER() nullptr
#define MATCH_TSAN_SWITCH_TO_FIBER(f) (void)(f)
#endif

// AddressSanitizer likewise needs to know which stack is live: an
// exception unwound on a fiber stack calls __asan_handle_no_return,
// which unpoisons "the current stack" and misreads a fiber's heap-
// allocated stack as an overflow without these annotations. Each
// switch is bracketed by start (naming the target stack) and finish
// (on arrival, reporting the stack just left); compiled in only under
// -fsanitize=address (the CI ASan+UBSan lane).
#if defined(__SANITIZE_ADDRESS__)
#define MATCH_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MATCH_ASAN_FIBERS 1
#endif
#endif

#ifdef MATCH_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#define MATCH_ASAN_START_SWITCH(save, bottom, size)                        \
    __sanitizer_start_switch_fiber(save, bottom, size)
#define MATCH_ASAN_FINISH_SWITCH(save, bottom_old, size_old)               \
    __sanitizer_finish_switch_fiber(save, bottom_old, size_old)
#else
#define MATCH_ASAN_START_SWITCH(save, bottom, size)                        \
    ((void)(save), (void)(bottom), (void)(size))
#define MATCH_ASAN_FINISH_SWITCH(save, bottom_old, size_old)               \
    ((void)(save), (void)(bottom_old), (void)(size_old))
#endif

namespace match::simmpi
{

namespace
{

/// The fiber being resumed/running right now (single-threaded scheduler).
thread_local Fiber *currentFiber = nullptr;

/// This thread's scheduler stack, as ASan reported it on the last switch
/// from the scheduler into a fiber (unused without ASan).
thread_local const void *schedulerStackBottom = nullptr;
thread_local std::size_t schedulerStackSize = 0;

#ifdef MATCH_ASAN_FIBERS
/// Whether the switch in flight left the scheduler's stack (resume) or
/// a fiber's (switchTo): only the former may be recorded as the
/// scheduler stack.
thread_local bool switchFromScheduler = false;
#endif

/// Finish the ASan switch on arrival at a fiber stack, recording the
/// stack just left when it was the scheduler's. No stack local has its
/// address taken here: a frame that never returns (the trampoline's)
/// would leave ASan redzones poisoned on a stack the pool recycles.
inline void
arriveOnFiber(void *fake_stack)
{
#ifdef MATCH_ASAN_FIBERS
    if (switchFromScheduler) {
        MATCH_ASAN_FINISH_SWITCH(fake_stack, &schedulerStackBottom,
                                 &schedulerStackSize);
    } else {
        MATCH_ASAN_FINISH_SWITCH(fake_stack, nullptr, nullptr);
    }
#else
    (void)fake_stack;
#endif
}

} // anonymous namespace

#if defined(__x86_64__) && defined(__linux__)

// Minimal SysV x86-64 stack switch (boost::context style). Unlike
// glibc's swapcontext it performs no rt_sigprocmask syscalls, which
// matters: a 512-rank simulation context-switches millions of times.
// Only the callee-saved integer registers and the stack pointer are
// exchanged; fibers share the FP environment.
extern "C" void matchCtxSwap(void **save_sp, void *restore_sp);
asm(R"(
.text
.globl matchCtxSwap
.type matchCtxSwap,@function
.align 16
matchCtxSwap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size matchCtxSwap,.-matchCtxSwap
)");

void
Fiber::initStack()
{
    // Craft the initial stack so the first matchCtxSwap "returns" into
    // trampolineEntry with correct 16-byte alignment (entry rsp % 16 ==
    // 8, as after a call) and a null fake return address above it.
    std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(stack_.data.get() + stack_.size);
    top &= ~static_cast<std::uintptr_t>(15);
    auto *slots = reinterpret_cast<void **>(top);
    // Layout downward from top: [fake ret=0][RIP][rbp][rbx][r12..r15].
    slots[-1] = nullptr;
    slots[-2] = reinterpret_cast<void *>(&Fiber::trampolineEntry);
    for (int i = 3; i <= 8; ++i)
        slots[-i] = nullptr;
    sp_ = reinterpret_cast<void *>(slots - 8);
}

void
Fiber::trampolineEntry()
{
    currentFiber->trampoline();
}

#else
#error "simmpi fibers currently support x86-64 Linux only"
#endif

Fiber *
Fiber::current()
{
    return currentFiber;
}

namespace
{

FiberStack
allocStack(std::size_t bytes)
{
    // new[] on uint8_t default-initializes: no memset, and untouched
    // guard pages never fault in.
    return FiberStack{std::unique_ptr<std::uint8_t[]>(
                          new std::uint8_t[bytes]),
                      bytes};
}

} // anonymous namespace

FiberStack
FiberStackPool::acquire(std::size_t bytes)
{
    if (!free_.empty() && free_.back().size >= bytes) {
        FiberStack stack = std::move(free_.back());
        free_.pop_back();
        return stack;
    }
    return allocStack(bytes);
}

void
FiberStackPool::release(FiberStack &&stack)
{
    // Bound the pool at the largest supported job (512 ranks): beyond
    // that, dropping the stack frees it normally.
    if (free_.size() < 512)
        free_.push_back(std::move(stack));
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             FiberStackPool *pool)
    : body_(std::move(body)),
      stack_(pool ? pool->acquire(stack_bytes)
                  : allocStack(stack_bytes)),
      pool_(pool)
{
    MATCH_ASSERT(body_ != nullptr, "fiber needs a body");
    MATCH_ASSERT(stack_bytes >= 64 * 1024, "fiber stack too small");
    state_ = State::Runnable;
    tsanFiber_ = MATCH_TSAN_CREATE_FIBER();
}

Fiber::~Fiber()
{
    // A fiber destroyed mid-flight would leak the C++ objects live on its
    // stack. The runtime always unwinds fibers (via FiberUnwind throws)
    // before dropping them; warn loudly if that contract is broken.
    if (started_ && state_ != State::Finished)
        util::warn("destroying unfinished fiber; stack objects leak");
    MATCH_TSAN_DESTROY_FIBER(tsanFiber_);
    if (pool_)
        pool_->release(std::move(stack_));
}

void
Fiber::trampoline()
{
    // First arrival on this stack, from the scheduler or a fiber.
    arriveOnFiber(nullptr);
    try {
        body_();
    } catch (const FiberUnwind &) {
        // Expected teardown path (kill/abort/rollback); destructors on
        // the fiber stack have already run during unwinding.
    } catch (const std::exception &e) {
        util::panic("uncaught exception on rank fiber: %s", e.what());
    } catch (...) {
        util::panic("uncaught non-standard exception on rank fiber");
    }
    state_ = State::Finished;
    MATCH_TSAN_SWITCH_TO_FIBER(tsanParent_);
    // A null save slot: this stack is never switched back to.
    MATCH_ASAN_START_SWITCH(nullptr, schedulerStackBottom,
                            schedulerStackSize);
    matchCtxSwap(&sp_, schedulerSp_);
    util::panic("resumed a finished fiber");
}

void
Fiber::resume()
{
    MATCH_ASSERT(currentFiber == nullptr,
                 "resume() must be called from the scheduler");
    MATCH_ASSERT(state_ == State::Runnable, "fiber not runnable");
    currentFiber = this;
    if (!started_) {
        started_ = true;
        initStack();
    }
    tsanParent_ = MATCH_TSAN_CURRENT_FIBER();
    MATCH_TSAN_SWITCH_TO_FIBER(tsanFiber_);
    void *scheduler_fake_stack = nullptr;
    MATCH_ASAN_START_SWITCH(&scheduler_fake_stack, stack_.data.get(),
                            stack_.size);
#ifdef MATCH_ASAN_FIBERS
    switchFromScheduler = true;
#endif
    matchCtxSwap(&schedulerSp_, sp_);
    // Back from whichever fiber ended the chain of switchTo() calls.
    MATCH_ASAN_FINISH_SWITCH(scheduler_fake_stack, nullptr, nullptr);
    currentFiber = nullptr;
}

void
Fiber::switchTo(Fiber &next)
{
    MATCH_ASSERT(currentFiber == this,
                 "switchTo() must be called from inside the fiber");
    MATCH_ASSERT(next.state_ == State::Runnable, "fiber not runnable");
    // Hand on the way back to the scheduler: whichever fiber ends this
    // chain returns to the stack (and TSAN context) that called resume().
    next.schedulerSp_ = schedulerSp_;
    next.tsanParent_ = tsanParent_;
    currentFiber = &next;
    if (!next.started_) {
        next.started_ = true;
        next.initStack();
    }
    MATCH_TSAN_SWITCH_TO_FIBER(next.tsanFiber_);
    void *fake_stack = nullptr; // parked on this fiber's own stack
    MATCH_ASAN_START_SWITCH(&fake_stack, next.stack_.data.get(),
                            next.stack_.size);
#ifdef MATCH_ASAN_FIBERS
    switchFromScheduler = false;
#endif
    matchCtxSwap(&sp_, next.sp_);
    arriveOnFiber(fake_stack);
}

void
Fiber::yield()
{
    MATCH_ASSERT(currentFiber == this,
                 "yield() must be called from inside the fiber");
    MATCH_TSAN_SWITCH_TO_FIBER(tsanParent_);
    void *fake_stack = nullptr; // parked on this fiber's own stack
    MATCH_ASAN_START_SWITCH(&fake_stack, schedulerStackBottom,
                            schedulerStackSize);
    matchCtxSwap(&sp_, schedulerSp_);
    arriveOnFiber(fake_stack);
}

} // namespace match::simmpi
