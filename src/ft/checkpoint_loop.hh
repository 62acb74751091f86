/**
 * @file
 * CheckpointLoop: the paper's Figure-1 main-computation-loop pattern as
 * a reusable helper, so all six proxy apps share identical FTI
 * instrumentation (recover at loop top, checkpoint every `stride`
 * iterations, fault-injection cancellation point).
 */

#ifndef MATCH_FT_CHECKPOINT_LOOP_HH
#define MATCH_FT_CHECKPOINT_LOOP_HH

#include "src/fti/fti.hh"
#include "src/simmpi/proc.hh"
#include "src/util/logging.hh"

namespace match::ft
{

/** Drives an FTI-protected BSP main loop. */
class CheckpointLoop
{
  public:
    /**
     * @param proc the rank handle
     * @param fti the rank's FTI instance; the loop counter must already
     *            be protected (see run())
     * @param stride checkpoint every `stride` iterations (paper: 10)
     */
    CheckpointLoop(simmpi::Proc &proc, fti::Fti &fti, int stride = 10)
        : proc_(proc), fti_(fti), stride_(stride)
    {}

    /**
     * Run `body(iter)` for iterations [*iter, total). `*iter` must be the
     * FTI-protected loop counter: recovery rewinds it to the last
     * checkpointed value and the loop re-executes from there.
     *
     * Checkpoint c is taken exactly when *iter == c * stride, so the
     * counter follows from the restored id. A run that snapshots its
     * regions restores the counter with them, and the loop checks it
     * against the id; a run that stores zero images
     * (FtiConfig::snapshotRegions off) restores no region, and the
     * loop sets the counter from the id.
     */
    template <typename Body>
    void
    run(int *iter, int total, Body &&body)
    {
        for (; *iter < total; ++*iter) {
            proc_.iterationPoint(*iter);
            // Paper Fig. 1: "At the beginning of the loop, if the
            // execution is a restart", recover; then checkpoint every
            // cp_stride iterations.
            if (fti_.status() != 0) {
                const int restored = fti_.recover();
                if (restored > 0)
                    rewind(iter, restored);
            }
            if (*iter > 0 && *iter % stride_ == 0)
                fti_.checkpoint(*iter / stride_);
            // Optional SDC scrub: re-verify the newest committed local
            // object every scrubStride iterations (off by default).
            if (fti_.config().scrubStride > 0 && *iter > 0 &&
                *iter % fti_.config().scrubStride == 0)
                fti_.scrub();
            body(*iter);
        }
    }

    int stride() const { return stride_; }

  private:
    /** Point the counter at checkpoint `restored`'s iteration. */
    void
    rewind(int *iter, int restored) const
    {
        const int at = restored * stride_;
        if (!fti_.config().snapshotRegions) {
            *iter = at;
        } else if (*iter != at) {
            util::panic("checkpoint %d restored loop counter %d, "
                        "expected %d (stride %d)",
                        restored, *iter, at, stride_);
        }
    }

    simmpi::Proc &proc_;
    fti::Fti &fti_;
    int stride_;
};

} // namespace match::ft

#endif // MATCH_FT_CHECKPOINT_LOOP_HH
