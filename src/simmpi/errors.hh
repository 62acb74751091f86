/**
 * @file
 * Control-flow exceptions used inside simulated ranks.
 *
 * Simulated MPI calls are the cancellation points of a rank fiber. The
 * runtime unwinds fibers by throwing these types from inside such calls;
 * they are caught by the fiber entry wrapper (never crossing a context
 * switch), which is how SIGTERM kills, job aborts, Reinit rollbacks and
 * ULFM longjmp-style restarts are modelled with correct C++ destructor
 * semantics.
 */

#ifndef MATCH_SIMMPI_ERRORS_HH
#define MATCH_SIMMPI_ERRORS_HH

#include <stdexcept>
#include <string>

#include "src/simmpi/types.hh"

namespace match::simmpi
{

/** Base for all fiber-unwinding signals. */
struct FiberUnwind
{
    virtual ~FiberUnwind() = default;
    virtual const char *what() const noexcept = 0;
};

/** The rank received the injected SIGTERM and dies here. */
struct ProcessKilled : FiberUnwind
{
    const char *what() const noexcept override { return "process killed"; }
};

/** The whole job is being torn down (MPI_ERRORS_ARE_FATAL path). */
struct JobAborted : FiberUnwind
{
    explicit JobAborted(Err cause) : cause(cause) {}
    const char *what() const noexcept override { return "job aborted"; }
    Err cause;
};

/** Reinit runtime-level rollback to the resilient_main entry point. */
struct ReinitRollback : FiberUnwind
{
    const char *what() const noexcept override { return "reinit rollback"; }
};

/**
 * Application-level restart after ULFM repair, thrown by the error handler
 * once the communicator is repaired (the paper's longjmp in Figure 3).
 */
struct UlfmRestart : FiberUnwind
{
    const char *what() const noexcept override { return "ulfm restart"; }
};

/** A runtime API was misused by application code (a bug in the caller). */
struct MpiUsageError : std::runtime_error
{
    explicit MpiUsageError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * The scheduler found live ranks but none runnable (every one blocked on
 * an event no rank can deliver). Runtime::run/runReinit throw it after
 * unwinding every rank fiber, so the job fails as a whole without a
 * JobResult: this is a simulator or application defect, not a failure a
 * recovery design could relaunch from.
 */
struct SchedulerDeadlock : std::runtime_error
{
    explicit SchedulerDeadlock(const std::string &message)
        : std::runtime_error(message)
    {}
};

} // namespace match::simmpi

#endif // MATCH_SIMMPI_ERRORS_HH
