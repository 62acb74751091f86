/**
 * @file
 * Cooperative user-level fibers on a hand-rolled x86-64 stack switch.
 *
 * Each simulated MPI rank runs on its own fiber, and exactly one fiber
 * runs at a time. The single-threaded scheduler resumes a fiber; a
 * fiber that blocks hands control straight to the next one with
 * switchTo(), and control returns to the scheduler only when a fiber
 * yields or finishes. Exceptions never propagate across a context
 * switch: the entry trampoline catches everything and records the
 * outcome.
 *
 * The switch exchanges only the callee-saved integer registers and the
 * stack pointer (no signal mask, unlike ucontext), because a 512-rank
 * simulation switches contexts millions of times per run.
 */

#ifndef MATCH_SIMMPI_FIBER_HH
#define MATCH_SIMMPI_FIBER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace match::simmpi
{

/**
 * Backing storage for one fiber stack. Deliberately NOT a std::vector:
 * vector value-initializes, and memset of a 128KB stack (touching 32
 * fresh pages) dominates job spin-up — profiling showed it at ~95% of
 * an 8-rank collective microbenchmark. The stack is left uninitialized;
 * initStack() writes the only bytes the first switch reads.
 *
 * Each stack also carries a cache color: initStack() starts the first
 * frame `color` bytes below the upper end. Without it every stack top
 * has the same offset within the allocation, and equally strided
 * allocations (glibc serves each 128 KiB stack as its own mmap, 132 KiB
 * apart) put the hot top lines of a 512-rank job on a few L2 sets,
 * 16 fibers per set. The n-th stack a thread allocates gets color
 * 64 * (n mod 64) bytes, so consecutive stacks never share a top line
 * offset. The largest color, 4032 bytes, is allocated on top of the
 * requested size, so every stack keeps at least that much usable depth
 * (a 128 KiB stack still fits the same 33 mmapped pages).
 */
struct FiberStack
{
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;  ///< whole allocation, color headroom included
    std::size_t color = 0; ///< bytes left unused below data + size

    /** Bytes below the first frame: at least the size asked for. */
    std::size_t usable() const { return size - color; }
};

/**
 * Recycles fiber stacks so respawns (failure recovery, repeated run()
 * calls on one Runtime) stop paying a 128KB allocation per rank. The
 * pool is intentionally dumb — a LIFO of retired stacks, reused when
 * large enough — because every stack in a Runtime is the same size.
 *
 * Not thread-safe: the runtime keeps one pool per thread (thread_local),
 * shared by every Runtime on that thread, and a Runtime creates and
 * destroys all its fibers on the thread it runs on. The pool must
 * outlive every Fiber constructed against it.
 */
class FiberStackPool
{
  public:
    /** A stack of at least `bytes` bytes, recycled when possible.
     *  Contents are unspecified (initStack rewrites the live top). */
    FiberStack acquire(std::size_t bytes);

    /** Return a retired stack for reuse. */
    void release(FiberStack &&stack);

  private:
    std::vector<FiberStack> free_;
};

/** One cooperatively-scheduled execution context. */
class Fiber
{
  public:
    /** Lifecycle states of a fiber. */
    enum class State
    {
        Runnable,  ///< can be resumed
        Blocked,   ///< parked on a runtime event
        Finished,  ///< body returned or unwound
    };

    /** Default stack size: proxy-app frames are shallow; this leaves
     *  ample headroom for FTI buffers. */
    static constexpr std::size_t defaultStackBytes = 128 * 1024;

    /**
     * Create a fiber executing `body` on a private stack.
     * @param body the function to run; exceptions thrown by it are
     *             swallowed by the trampoline (FiberUnwind silently, any
     *             other exception via panic).
     * @param stack_bytes stack size; proxy-app frames are shallow, the
     *             default leaves ample headroom for FTI buffers.
     * @param pool optional stack recycler; when set, the stack is
     *             acquired from it and handed back on destruction. The
     *             pool must outlive the fiber.
     */
    explicit Fiber(std::function<void()> body,
                   std::size_t stack_bytes = defaultStackBytes,
                   FiberStackPool *pool = nullptr);

    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the scheduler into this fiber. Returns when this
     * fiber, or the last fiber of a chain of switchTo() calls begun
     * here, yields or finishes. Must only be called from scheduler
     * context.
     */
    void resume();

    /**
     * Switch from this fiber straight into `next` (Runnable, started or
     * not), without passing through the scheduler. The way back to the
     * scheduler is handed on, so when `next` or a fiber it switches to
     * in turn yields or finishes, the scheduler's resume() returns.
     * Must only be called from inside this fiber's own body.
     */
    void switchTo(Fiber &next);

    /**
     * Switch from this fiber back to the scheduler. Must only be called
     * from inside the fiber's own body.
     */
    void yield();

    State state() const { return state_; }
    void setState(State state) { state_ = state; }

    bool finished() const { return state_ == State::Finished; }

    /** Fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

    /** One past the highest byte of this fiber's stack allocation
     *  (the first frame starts the stack's color below it). */
    const std::uint8_t *stackEnd() const
    {
        return stack_.data.get() + stack_.size;
    }

    /** Fiber-local storage slot (thread_local is useless under fibers:
     *  they all share one OS thread). Used by the MPI compat shim. */
    void *userData() const { return userData_; }
    void setUserData(void *data) { userData_ = data; }

  private:
    void trampoline();
    void initStack();
    static void trampolineEntry();

    std::function<void()> body_;
    FiberStack stack_;
    FiberStackPool *pool_ = nullptr; ///< recycle target, may be null
    void *sp_ = nullptr;          ///< fiber stack pointer when parked
    /** Scheduler stack pointer while running: saved by resume(),
     *  handed on by switchTo(). */
    void *schedulerSp_ = nullptr;
    State state_ = State::Runnable;
    bool started_ = false;
    void *userData_ = nullptr;    ///< fiber-local storage
    /** ThreadSanitizer fiber contexts (null without TSAN): the raw
     *  stack switch must be announced to TSAN or its shadow-stack and
     *  happens-before machinery misfire on every switch. The parent is
     *  the scheduler's context, handed on like schedulerSp_. */
    void *tsanFiber_ = nullptr;
    void *tsanParent_ = nullptr;
};

} // namespace match::simmpi

#endif // MATCH_SIMMPI_FIBER_HH
