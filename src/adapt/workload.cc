#include "adapt/workload.hh"

#include "common/logging.hh"
#include "kernels/spmspm.hh"
#include "kernels/spmspv.hh"
#include "sparse/csc.hh"

namespace sadapt {

namespace {

RunParams
runParamsFor(const WorkloadOptions &opts, std::uint64_t default_epoch)
{
    RunParams rp;
    rp.shape = opts.shape;
    rp.memBandwidth = opts.memBandwidth;
    rp.epochFpOps =
        opts.epochFpOps != 0 ? opts.epochFpOps : default_epoch;
    return rp;
}

} // namespace

Workload
makeSpMSpMWorkload(const std::string &name, const CsrMatrix &a,
                   const WorkloadOptions &opts)
{
    return makeSpMSpMWorkload(name, a, a.transposed(), opts);
}

Workload
makeSpMSpMWorkload(const std::string &name, const CsrMatrix &a,
                   const CsrMatrix &b, const WorkloadOptions &opts)
{
    auto build = buildSpMSpM(CscMatrix(a), b, opts.shape, opts.l1Type);
    build.trace.shrinkToFit();
    return Workload{name, std::move(build.trace),
                    runParamsFor(opts, 5000), opts.l1Type};
}

Workload
makeSpMSpVWorkload(const std::string &name, const CsrMatrix &a,
                   const SparseVector &x, const WorkloadOptions &opts)
{
    SADAPT_ASSERT(x.dim() == a.cols(), "vector dimension mismatch");
    auto build = buildSpMSpV(CscMatrix(a), x, opts.shape, opts.l1Type);
    build.trace.shrinkToFit();
    return Workload{name, std::move(build.trace),
                    runParamsFor(opts, 500), opts.l1Type};
}

} // namespace sadapt
