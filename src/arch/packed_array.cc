#include "arch/packed_array.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/fixed_point.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "arch/pe.h"
#include "unary/bitstream.h"
#include "unary/sobol.h"

// Under the memory-checking sanitizers, poison every reused arena
// buffer with 0xA5 between resize and the staging writes. Any read of a
// slot the current fold did not stage then returns a loud, deterministic
// garbage value instead of silently reusing a previous fold's data —
// the instrumentation that settled the tsan_test_packed_array flake
// investigation (DESIGN.md §16). Release builds compile this out.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define USYS_POISON_ARENAS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define USYS_POISON_ARENAS 1
#endif
#endif

namespace usys {

namespace {

template <typename T>
inline void
poisonArena(std::vector<T> &v)
{
#ifdef USYS_POISON_ARENAS
    if (!v.empty())
        std::memset(static_cast<void *>(v.data()), 0xA5,
                    v.size() * sizeof(T));
#else
    (void)v;
#endif
}

/**
 * Packed threshold-comparison stream with per-word prefix popcounts:
 * stream bit k is (values[k] < threshold), and prefixOnes(n) counts the
 * 1s among the first n bits with one masked popcount — the SWAR form of
 * stepping a C-W comparator + AND + counter n times.
 */
struct PackedStream
{
    std::vector<u64> words;
    std::vector<u32> prefix; // prefix[w] = ones in words[0..w)

    PackedStream() = default;

    /** (Re)build in place, reusing the word/prefix capacity — pooled
     *  instances make a fold allocation-free once warmed up. */
    void
    fill(const std::vector<u32> &values, u32 threshold)
    {
        const u32 n = u32(values.size());
        const u32 nwords = (n + 63) / 64;
        const SimdKernels &simd = simdKernels();
        words.resize(nwords);
        poisonArena(words);
        if (n)
            simd.thresholdPackWords(values.data(), n, threshold,
                                    words.data());
        prefix.resize(nwords + 1);
        poisonArena(prefix);
        simd.prefixPopcount(words.data(), nwords, prefix.data());
    }

    /** 1s among stream bits [0, n). */
    u32
    prefixOnes(u32 n) const
    {
        const u32 w = n >> 6;
        const u32 rem = n & 63;
        u32 ones = prefix[w];
        if (rem)
            ones += u32(std::popcount(words[w] & lowMask(rem)));
        return ones;
    }
};

/** Key for one persistent input-ones memo (scheme kind x RNG shape). */
struct OnesMemoKey
{
    int kind; // 0 = rate, 1 = temporal, 2 = bipolar
    int bits;
    u32 mul;

    bool
    operator<(const OnesMemoKey &o) const
    {
        return std::tie(kind, bits, mul) <
               std::tie(o.kind, o.bits, o.mul);
    }
};

/**
 * Per-worker fold scratch. The executor's workers are persistent, so
 * this arena survives across folds, GEMMs, and whole sweeps: the
 * stream pool hands back PackedStream instances with their word/prefix
 * capacity intact, and the ones-memos keep every input magnitude's
 * delivered-ones count (a pure function of (scheme, bits, mul,
 * magnitude), so reuse across folds is bit-exact). Entirely
 * thread-local — parallel tile shards never share scratch.
 */
struct FoldScratch
{
    std::map<OnesMemoKey, std::vector<i64>> ones_memos;
    std::vector<std::unique_ptr<PackedStream>> stream_pool;

    /** Persistent memo for one (kind, bits, mul), grown to `size`. */
    std::vector<i64> &
    onesMemo(int kind, int bits, u32 mul, std::size_t size)
    {
        std::vector<i64> &memo = ones_memos[OnesMemoKey{kind, bits, mul}];
        if (memo.size() < size)
            memo.resize(size, -1);
        return memo;
    }
};

FoldScratch &
foldScratch()
{
    thread_local FoldScratch scratch;
    return scratch;
}

/**
 * Lazily built per-threshold packed streams over one shared RNG value
 * sequence. Weights are stationary and every PE row sees the same RNG
 * values, so a fold needs at most one stream per distinct magnitude.
 * Stream objects are borrowed from the per-worker pool and returned on
 * destruction, so steady-state folds allocate nothing.
 */
class StreamCache
{
  public:
    StreamCache(const std::vector<u32> &values, u32 max_threshold,
                std::vector<std::unique_ptr<PackedStream>> &pool)
        : values_(values), pool_(pool),
          slots_(std::size_t(max_threshold) + 1, nullptr)
    {}

    ~StreamCache()
    {
        for (auto &s : owned_)
            pool_.push_back(std::move(s));
    }

    const PackedStream &
    forThreshold(u32 t)
    {
        PackedStream *&slot = slots_[t];
        if (!slot) {
            std::unique_ptr<PackedStream> s;
            if (!pool_.empty()) {
                s = std::move(pool_.back());
                pool_.pop_back();
            } else {
                s = std::make_unique<PackedStream>();
            }
            s->fill(values_, t);
            slot = s.get();
            owned_.push_back(std::move(s));
        }
        return *slot;
    }

  private:
    const std::vector<u32> &values_;
    std::vector<std::unique_ptr<PackedStream>> &pool_;
    std::vector<PackedStream *> slots_;
    std::vector<std::unique_ptr<PackedStream>> owned_;
};

/**
 * First `count` outputs of a Sobol dimension (the shared lane RNG),
 * computed once per (dimension, bits, count) and shared by reference:
 * every fold of a sweep uses the same few sequences, so regenerating
 * them per fold was pure churn. Entries are immutable once built and
 * never evicted, so the returned reference stays valid for the process
 * lifetime and is safe to read from any thread.
 */
const std::vector<u32> &
sharedSobolValues(int dimension, int bits, u32 count)
{
    using Key = std::tuple<int, int, u32>;
    static std::mutex mu;
    static std::map<Key, std::unique_ptr<const std::vector<u32>>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = cache[Key(dimension, bits, count)];
    if (!slot) {
        SobolSequence seq(dimension, bits);
        auto v = std::make_unique<std::vector<u32>>(count);
        for (u32 k = 0; k < count; ++k)
            (*v)[k] = seq.next();
        slot = std::move(v);
    }
    return *slot;
}

/** Largest sign-magnitude |value| in a tile (for cache sizing). */
u32
maxAbs(const Matrix<i32> &m)
{
    u32 best = 0;
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c)
            best = std::max(best, toSignMag(m(r, c)).magnitude);
    return best;
}

/**
 * Per-MAC packed-stream fold for the comparator-BSG schemes (UR/UT and
 * uGEMM-H): out (M x C, zeroed) += input x weights, with every fault
 * site of cfg.faults applied at its packed equivalent. One packed
 * weight-comparison stream per distinct |w| over the row-shared weight
 * RNG values answers each count with one masked popcount. This is the
 * path for folds under activation-stream, weight-stream or accumulator
 * faults, and the only path for widths without product tables.
 */
void
streamFold(const ArrayConfig &cfg, const Matrix<i32> &input,
           const Matrix<i32> &weights, Matrix<i64> &out, u64 tile)
{
    USYS_PROF_SCOPE("fold.packed.stream");
    const KernelConfig &kern = cfg.kernel;
    const int m_rows = input.rows();
    const int rows = cfg.rows;
    const int cols = cfg.cols;
    const u32 mul = kern.mulCycles();
    const FaultPlan *plan = cfg.faults.enabled() ? &cfg.faults : nullptr;
    const bool fa = plan && plan->rates.activation_stream > 0.0;
    const bool fs = plan && plan->rates.weight_stream > 0.0;
    const bool fo = plan && plan->rates.accumulator > 0.0;
    const u32 acc_width = accumulatorWidth(kern);
    FoldScratch &scratch = foldScratch();

    if (kern.scheme == Scheme::UgemmHybrid) {
        const int rng_bits = kern.bits;
        const i64 bias = i64(1) << (kern.bits - 1);
        // Bipolar uMUL: input 1-cycles consume the polarity-1 weight RNG
        // (product bit = rnum < woffset), input 0-cycles the polarity-0
        // RNG (product bit = !(rnum_alt < woffset)).
        const u32 max_woff = u32(maxAbs(weights) + bias);
        const std::vector<u32> &s1vals =
            sharedSobolValues(kWeightRngDim, rng_bits, mul);
        const std::vector<u32> &s0vals = sharedSobolValues(
            kWeightRngDim + kWeightAltRngOffset, rng_bits, mul);
        std::vector<i64> &ones_memo = scratch.onesMemo(
            2, rng_bits, mul, std::size_t(maxAbs(input) + bias) + 1);
        StreamCache s1(s1vals, max_woff, scratch.stream_pool);
        StreamCache s0(s0vals, max_woff, scratch.stream_pool);
        for (int m = 0; m < m_rows; ++m) {
            for (int r = 0; r < rows; ++r) {
                // ActivationStream site: corrupt the packed bipolar
                // stream before counting (memo bypassed); the corrupted
                // split between 1-cycles and 0-cycles drives both
                // polarity lanes exactly as the scalar front end's
                // corrupted consumption counters do.
                auto ones_of = [&](const Fault *f) {
                    BipolarRateBsg gen(input(m, r), kInputRngDim,
                                       kern.bits);
                    return u32(onesInWindow(gen, mul, f));
                };
                std::optional<Fault> af;
                if (fa)
                    af = plan->activationStream(tile, m, r, mul);
                u32 ones;
                if (af) {
                    ones = ones_of(&*af);
                } else {
                    i64 &slot = ones_memo[std::size_t(input(m, r) + bias)];
                    if (slot < 0)
                        slot = i64(ones_of(nullptr));
                    ones = u32(slot);
                }
                const u32 zeros = mul - ones;
                for (int c = 0; c < cols; ++c) {
                    const u32 woff = u32(weights(r, c) + bias);
                    i64 count =
                        i64(s1.forThreshold(woff).prefixOnes(ones)) +
                        (i64(zeros) - s0.forThreshold(woff).prefixOnes(zeros));
                    // WeightStream site: the polarity-1 lane is the same
                    // C-BSG structure the unipolar schemes fault, so
                    // corrupt its covered comparison bits only.
                    if (fs)
                        if (const auto f = plan->weightStream(tile, m, r,
                                                              c, mul)) {
                            const u64 hi =
                                std::min<u64>(u64(f->first) + f->len,
                                              ones);
                            for (u64 k = f->first; k < hi; ++k) {
                                const bool b =
                                    s1vals[std::size_t(k)] < woff;
                                count += i64(f->corruptBit(b, u32(k))) -
                                         i64(b);
                            }
                        }
                    // finishMac's bipolar count -> signed product offset.
                    i64 contrib = count - bias;
                    if (fo)
                        if (const auto f = plan->accumulator(tile, m, r, c,
                                                             acc_width))
                            contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
        }
        return;
    }

    const bool rate = kern.scheme == Scheme::USystolicRate;
    const int rng_bits = kern.bits - 1;
    const std::vector<u32> &wvals =
        sharedSobolValues(kWeightRngDim, rng_bits, mul);
    // Input 1s delivered inside the (possibly early-terminated) window
    // depend only on |i| (a pure function of the RNG shape), so the memo
    // persists across folds in the worker arena.
    std::vector<i64> &ones_memo = scratch.onesMemo(
        rate ? 0 : 1, rng_bits, mul, std::size_t(maxAbs(input)) + 1);
    // ActivationStream site: corrupt the packed input stream before
    // counting — the corrupted ones-count is all the weight side ever
    // sees (the C-BSG advances on observed 1-bits), matching the scalar
    // engine's corrupted consumption counters. Faulted MACs bypass the
    // memo.
    auto ones_of = [&](u32 iabs, const Fault *f) -> u32 {
        if (rate) {
            RateBsg gen(iabs, kInputRngDim, rng_bits);
            return u32(onesInWindow(gen, mul, f));
        }
        TemporalBsg gen(iabs, rng_bits);
        return u32(onesInWindow(gen, mul, f));
    };
    StreamCache wstreams(wvals, maxAbs(weights), scratch.stream_pool);
    for (int m = 0; m < m_rows; ++m) {
        for (int r = 0; r < rows; ++r) {
            const SignMag in = toSignMag(input(m, r));
            std::optional<Fault> af;
            if (fa)
                af = plan->activationStream(tile, m, r, mul);
            u32 ones;
            if (af) {
                ones = ones_of(in.magnitude, &*af);
            } else {
                // Zero-magnitude streams are all-zero by construction
                // (the comparator threshold is 0): never generate them.
                i64 &slot = ones_memo[in.magnitude];
                if (slot < 0)
                    slot = in.magnitude ? ones_of(in.magnitude, nullptr)
                                        : 0;
                ones = u32(slot);
            }
            // Zero delivered ones: every count is 0 and weight-stream
            // faults only cover indices below the ones-count, so the
            // whole column sweep contributes exactly nothing — unless an
            // accumulator fault could still fire on it.
            if (!fo && ones == 0)
                continue;
            for (int c = 0; c < cols; ++c) {
                const SignMag w = toSignMag(weights(r, c));
                i64 count =
                    wstreams.forThreshold(w.magnitude).prefixOnes(ones);
                // WeightStream site: re-derive the covered comparison
                // bits b_k = (wrng.at(k) < |w|) and swap each for its
                // corrupted value — only indices below the delivered
                // ones-count ever reach a comparator.
                if (fs)
                    if (const auto f =
                            plan->weightStream(tile, m, r, c, mul)) {
                        const u64 hi = std::min<u64>(
                            u64(f->first) + f->len, ones);
                        for (u64 k = f->first; k < hi; ++k) {
                            const bool b =
                                wvals[std::size_t(k)] < w.magnitude;
                            count += i64(f->corruptBit(b, u32(k))) -
                                     i64(b);
                        }
                    }
                i64 contrib = (in.negative != w.negative) ? -count : count;
                // Accumulator site: per-MAC signed OREG contribution,
                // pre-merge, pre-shift — same point as finishMac.
                if (fo)
                    if (const auto f = plan->accumulator(tile, m, r, c,
                                                         acc_width))
                        contrib = f->applyToInt(contrib, acc_width);
                out(m, c) += contrib;
            }
        }
    }
    // Top-row shifter: early termination scales results back by
    // 2^(N - n).
    if (rate && kern.et_bits > 0)
        for (i64 &v : out.data())
            v *= i64(1) << (kern.bits - kern.et_bits);
}

} // namespace

PackedArray::PackedArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicArray::FoldResult
PackedArray::runFold(const Matrix<i32> &input, const Matrix<i32> &weights,
                     FoldStatsDelta *stats, u64 tile) const
{
    USYS_PROF_SCOPE("fold.packed");
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "runFold: input width != array rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "runFold: weight tile does not match array shape");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mac = kern.macCycles();

    // Identical closed-form schedule to SystolicArray: the packed model
    // changes how fast the host evaluates a MAC interval, never how many
    // simulated cycles it takes.
    Cycles cycles = Cycles(rows);
    cycles += (u64(m_rows) + rows - 1) * mac + u64(cols - 1);

    FoldStatsDelta local;
    FoldStatsDelta &delta = stats ? *stats : local;
    delta.add(m_rows, rows, cols, cycles, laneTraceLength(kern));
    delta.addSparsity(foldSparsityCensus(kern, input, weights));

    // Fault plan: the census is analytic (coordinate enumeration), so
    // it matches SystolicArray's by construction; the event *effects*
    // are applied below at the packed formulation's equivalent points.
    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    if (plan)
        delta.addFaults(countFoldFaults(*plan, kern, tile, m_rows, rows,
                                        cols));
    const bool fa = plan && plan->rates.activation_stream > 0.0;
    const bool fo = plan && plan->rates.accumulator > 0.0;
    const u32 acc_width = accumulatorWidth(kern);

    // WeightReg site: the preload latches the corrupted codes.
    Matrix<i32> latched;
    const Matrix<i32> &w = latchWeights(plan, kern.bits, weights, latched,
                                        rows, cols, 1, tile);

    // Staged-value schemes (binary, tubGEMM, tuGEMM): every MAC is the
    // exact product of the weight and one staged activation value, so
    // the ActivationStream site lands on that value. A binary stream
    // *is* the code bits, so corruption hits the code itself; the
    // staircase stream of |a| asserts exactly |a| of its window bits
    // fault-free, so a temporal activation stages its (possibly
    // corrupted) delivered ones-count, signed — tubGEMM adds the
    // weight per asserted bit, tuGEMM ANDs in the weight staircase,
    // which matches |w| of the held cycles per asserted bit.
    const bool staged = !hasWeightBsg(kern.scheme);
    const Matrix<i32> *ip = &input;
    Matrix<i32> ifaulted;
    if (fa && staged) {
        const u32 awin = activationWindow(kern);
        ifaulted = input;
        for (int m = 0; m < m_rows; ++m)
            for (int r = 0; r < rows; ++r) {
                const auto f = plan->activationStream(tile, m, r, awin);
                if (!f)
                    continue;
                i32 &a = ifaulted(m, r);
                if (!isUnary(kern.scheme)) {
                    a = corruptActivationCode(*f, a, kern);
                    continue;
                }
                const SignMag in = toSignMag(a);
                TemporalBsg gen(in.magnitude, kern.bits - 1);
                const i32 ones = i32(onesInWindow(gen, awin, &*f));
                a = in.negative ? -ones : ones;
            }
        ip = &ifaulted;
    }

    Matrix<i64> out(m_rows, cols, 0);
    if (staged) {
        // Accumulator site: per-MAC signed OREG contribution, pre-merge
        // — same point as PeCore::finishMac.
        for (int m = 0; m < m_rows; ++m)
            for (int r = 0; r < rows; ++r) {
                const i64 a = (*ip)(m, r);
                for (int c = 0; c < cols; ++c) {
                    i64 contrib = a * i64(w(r, c));
                    if (fo)
                        if (const auto f = plan->accumulator(tile, m, r, c,
                                                             acc_width))
                            contrib = f->applyToInt(contrib, acc_width);
                    out(m, c) += contrib;
                }
            }
    } else {
        streamFold(cfg_, input, w, out, tile);
    }

    if (!stats)
        local.flush(kern);
    return SystolicArray::FoldResult{std::move(out), cycles};
}

} // namespace usys
