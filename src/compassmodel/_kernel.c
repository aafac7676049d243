/* The compiled kernel of compassmodel._kernel, built as the CPython extension
 * module compassmodel._kernel_c: the type Context, one kernel run's struct
 * cm_ctx with the buffers of its arrays, whose run and total_w call cm_run
 * and cm_total_w, and the functions metrics and graph, which call cm_metrics
 * and cm_graph. How a run uses it is told in _kernel.py; each function's
 * comment says what it mirrors.
 *
 * The generator is CPython's MT19937 (Modules/_randommodule.c): the state
 * words and index come from random.Random.getstate() and go back with
 * setstate(), and random() is the 53-bit double built from two words. The
 * constructor tempers the block the state holds into c->tw; next_block
 * twists the state sixteen words a step with GCC vector extensions, then
 * tempers all of it in one vector pass. Both are built once per CPU target
 * (target_clones: AVX-512, AVX2 and the default SSE2), and the loader picks
 * the widest the CPU runs. run_chunk keeps the index in a
 * local for the whole chunk and writes it back once at the end; an event
 * reads its six tempered words in place when the block has six left, and
 * word by word across a new block. The tie bit is random() < 0.5, which
 * holds exactly when the fifth word is below 2^31; the sixth word is drawn
 * and not read. All of it is integer work, so the words, and getstate(),
 * are CPython's bit for bit.
 *
 * Waiting times use libm's log, which math.log calls. Build without
 * floating-point contraction (-ffp-contract=off), without fast-math and
 * without -march, so no product and sum fuse into one rounding that Python
 * does not make. The clones keep to that: they hold integer work only,
 * which gives the same bits on every target, and no floating-point code
 * is built for a target wider than the default.
 *
 * A probe's W is summed exactly, in a fixed-point accumulator (acc_add,
 * after Neal 2015) rounded half-even once: math.fsum's sum bit for bit, in
 * time that does not grow with the spread of the gaps.
 */

#include <Python.h>
#include <structmember.h>

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

/* The state a kernel run carries from one chunk to the next, embedded in a
 * Context; its pointers are into the buffers the Context holds. */
struct cm_ctx {
    uint32_t *mt;           /* getstate()'s words: MT_N state words, then the
                               index of the next one (MT_N: regenerate first) */
    uint32_t tw[MT_N];      /* the state words, tempered */
    const double *sched_t;  /* a replay, when mt is NULL: a ScriptedStream's */
    const int64_t *sched_e, *sched_k; /* times, edge ids and ties */
    int64_t sched_end;      /* replay the events before this index, */
    int64_t sched_next;     /* from this one */
    const int64_t *edges;   /* m rows of (tail, head): Graph.edge_array */
    double *op;             /* the opinions */
    const int64_t *inc_start, *inc_ids; /* Graph.incidence: the edges of vertex v
                               are inc_ids[inc_start[v] .. inc_start[v + 1]) */
    double *delta, *xi;     /* when delta is not NULL, a DifferenceTracker's m
                               gaps and, when xi is not NULL, its m bounds */
    int64_t m;
    double mu, theta;
    int64_t circle;
    double clock;           /* the time of the last applied event */
    int64_t count;          /* the events the run's state has applied */
    double max_time;
    int64_t drawn;          /* 1 when (t, e, k) is held: drawn, or parked, and
                               not applied */
    double t;
    int64_t e, k;
};

/* The block work below is compiled once per CPU target from one body in
 * 16-word vectors, and the loader's ifunc picks the widest clone the CPU
 * runs: one AVX-512 vector, two AVX2 halves or four SSE2 quarters a step.
 * Where ifunc is missing (not x86-64 ELF with glibc, or not gcc), the same
 * body is built for the default target alone. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__GNUC__) \
    && !defined(__clang__)
#define WIDEST __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define WIDEST
#endif

/* sixteen state words, and their two halves. Loads and stores go through
 * memcpy, unaligned, and no function takes or returns a vector, which
 * would pass it by a wider ABI than the default target's. */
typedef uint32_t v16u __attribute__((vector_size(64)));
typedef uint32_t v8u __attribute__((vector_size(32)));
union v16h {
    v16u v;
    v8u half[2];
};

/* store the sixteen words x at p, a half at a time: gcc 12 stores a whole
 * one that it has split into AVX2 halves through the stack, 16 bytes a
 * move, which makes the AVX2 clone about 1.5 times slower */
#define STORE16(p, x)                                  \
    do {                                               \
        const union v16h u_ = {.v = (x)};              \
        const v8u lo_ = u_.half[0], hi_ = u_.half[1];  \
        memcpy((p), &lo_, sizeof lo_);                 \
        memcpy((p) + 8, &hi_, sizeof hi_);             \
    } while (0)

/* CPython's twist of state word x, whose next word is x1, against word xm,
 * for one word or sixteen: mag01[y & 1] is -(x1 & 1) & MATRIX_A */
#define TWIST(x, x1, xm) \
    ((xm) ^ ((((x) & UPPER_MASK) | ((x1) & LOWER_MASK)) >> 1) ^ (-((x1) & 1U) & MATRIX_A))

/* the sixteen state words from p twisted in place, against those at p + off */
static inline __attribute__((always_inline)) void twist16(uint32_t *p, ptrdiff_t off)
{
    v16u x, x1, xm;

    memcpy(&x, p, sizeof x);
    memcpy(&x1, p + 1, sizeof x1);
    memcpy(&xm, p + off, sizeof xm);
    STORE16(p, TWIST(x, x1, xm));
}

/* CPython's tempering of all MT_N = 39 * 16 state words into tw */
WIDEST static void temper_block(uint32_t *tw, const uint32_t *mt)
{
    int kk;

    for (kk = 0; kk < MT_N; kk += 16) {
        v16u y;
        memcpy(&y, mt + kk, sizeof y);
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= y >> 18;
        STORE16(tw + kk, y);
    }
}

/* CPython's genrand_uint32 regeneration of all MT_N state words, then
 * the new block tempered into tw */
WIDEST static void next_block(uint32_t *mt, uint32_t *tw)
{
    int kk = 0;

    /* MT_N - MT_M = 227 = 14 * 16 + 3 words, against words MT_M ahead,
     * which this block has not twisted yet */
    for (; kk + 16 <= MT_N - MT_M; kk += 16)
        twist16(mt + kk, MT_M);
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = TWIST(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    /* then 396 = 24 * 16 + 12 words, against words MT_N - MT_M behind, more
     * than a vector, so twisted already */
    for (; kk + 16 <= MT_N - 1; kk += 16)
        twist16(mt + kk, MT_M - MT_N);
    for (; kk < MT_N - 1; kk++)
        mt[kk] = TWIST(mt[kk], mt[kk + 1], mt[kk + (MT_M - MT_N)]);
    mt[MT_N - 1] = TWIST(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    temper_block(tw, mt);
}

/* random.random() from two words: the 53-bit double of a >> 5 and b >> 6 */
static inline double random_double(uint32_t a, uint32_t b)
{
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0);
}

static double sgn(double x)
{
    if (x > 0.0)
        return 1.0;
    if (x < 0.0)
        return -1.0;
    return 0.0;
}

static double wrap(double y)
{
    if (y > 1.0)
        return y - 2.0;
    if (y <= -1.0)
        return y + 2.0;
    return y;
}

/* The pair update on edge e: update_pair_compass on the circle (tie bit
 * k), update_pair_deffuant on the interval, branch for branch. Forced
 * inline: gcc -O2 keeps a plain static inline out of line, a call per
 * event. */
static inline __attribute__((always_inline)) void
apply_rule(double *op, const int64_t *edges, int64_t e, int64_t k, double mu, double theta,
           int circle)
{
    const int64_t a = edges[2 * e], b = edges[2 * e + 1];
    const double xu = op[a], xv = op[b];
    const double diff = xu - xv, ad = fabs(diff);

    if (((ad <= 1.0 || !circle) ? ad : 2.0 - ad) > theta)
        return; /* beyond the confidence bound: the clock moves, the pair does not */
    if (ad < 1.0 || !circle || (ad == 1.0 && sgn(xu) == sgn(xv))) {
        /* same signs at 1: the gap rounded up to 1 from inside the chart */
        if (mu == 0.5) {
            op[a] = op[b] = 0.5 * (xu + xv);
        } else {
            op[a] = xu - mu * diff;
            op[b] = xv + mu * diff;
        }
    } else if (ad > 1.0) {
        if (mu == 0.5) {
            op[a] = op[b] = wrap(0.5 * (xu + xv) + 1.0);
        } else {
            const double step = mu * (2.0 - ad);
            op[a] = wrap(xu + step * sgn(xu));
            op[b] = wrap(xv + step * sgn(xv));
        }
    } else {
        double su = sgn(xu), sv = sgn(xv);
        if (su == 0.0)
            su = -sv;
        else if (sv == 0.0)
            sv = -su;
        const double move = k == 1 ? -mu : mu;
        op[a] = wrap(xu + move * su);
        op[b] = wrap(xv + move * sv);
    }
}

/* mod_s(op[head] - op[tail]): the gap of edge f, read from the opinions */
static double opinion_gap(const struct cm_ctx *c, int64_t f)
{
    return wrap(fmod(c->op[c->edges[2 * f + 1]] - c->op[c->edges[2 * f]], 2.0));
}

/* DifferenceTracker.apply_event on edge e, after its pair update. Its
 * neighbours, the other edges at its tail and then at its head, come in the
 * order of Graph.edge_neighbors. */
static void track(const struct cm_ctx *c, int64_t e)
{
    const int64_t *edges = c->edges, *start = c->inc_start, *ids = c->inc_ids;
    double *delta = c->delta, *xi = c->xi;
    const double mu = c->mu, de = delta[e], step = mu * de;
    const double xstep = xi ? mu * xi[e] : 0.0;
    /* on the cut the tie bit decided: re-read the gaps from the opinions */
    const int reread = fabs(de) == 1.0;
    int64_t j, p;

    if (fabs(de) > c->theta)
        return; /* gated on the tracked gap: neither delta nor xi moves */
    for (j = 0; j < 2; j++) {
        const int64_t s = edges[2 * e + j];
        for (p = start[s]; p < start[s + 1]; p++) {
            const int64_t f = ids[p];
            if (f == e)
                continue;
            if (reread)
                delta[f] = opinion_gap(c, f);
            else /* coupling +1 when exactly one of e and f has s as its head */
                delta[f] = wrap(delta[f] + ((edges[2 * f + 1] == s) != j ? step : -step));
            if (xi)
                xi[f] += xstep;
        }
    }
    delta[e] = reread ? opinion_gap(c, e) : (1.0 - 2.0 * mu) * de;
    if (xi)
        xi[e] = (1.0 - 2.0 * mu) * xi[e];
}

/* engine._total_w in C, T: the edge distances summed left to right in
 * edge-id order, with the same fold, so bitwise the same T. T is not W, the
 * exact sum (cm_metrics'), but a bound on it that the engine uses only to
 * rule a stop out. On the circle
 * a distance x is folded to 2 - x just when that is below x, that is when
 * x > 1 (there 2 - x is exact; at 1 both are 1): one select, no branch. */
static double cm_total_w(struct cm_ctx *c)
{
    const int64_t *edges = c->edges;
    const double *op = c->op;
    const int circle = c->circle != 0;
    double total = 0.0;
    int64_t f;

    for (f = 0; f < c->m; f++) {
        const double x = fabs(op[edges[2 * f]] - op[edges[2 * f + 1]]);
        const double y = circle ? 2.0 - x : x;
        total += y < x ? y : x;
    }
    return total;
}

/* One chunk of up to limit events, drawn from the generator or, given
 * replay, read off the schedule up to sched_end: the held event first, and
 * then each event up to the first past next_probe or max_time, which it
 * holds. A limit below 1, or a held event still past them, applies
 * nothing and keeps the event held. Each event is applied, and tracked
 * when delta is set, as stepping engine.apply_event and
 * DifferenceTracker.apply_event would. Returns the events applied. Forced inline into its two callers with replay a
 * constant, so each compiles without the other's source of events. */
static inline __attribute__((always_inline)) int64_t
run_chunk(struct cm_ctx *c, const int replay, const int64_t limit, const double next_probe)
{
    const int64_t *edges = c->edges;
    double *op = c->op;
    const double m = (double)c->m, mu = c->mu, theta = c->theta;
    const int circle = c->circle != 0;
    const double max_time = c->max_time;
    uint32_t *mt = c->mt, *tw = c->tw, index = replay ? 0 : mt[MT_N], across[6];
    const uint32_t *w;
    int64_t next = c->sched_next;
    double clock = c->clock;
    int64_t i = 0;
    int j;

    if (limit < 1)
        return 0; /* nothing to apply: a held event stays held */
    if (c->drawn) {
        if (c->t > max_time || c->t > next_probe)
            return 0; /* still past: the event stays held */
        /* the held event, applied ahead of the draws */
        apply_rule(op, edges, c->e, c->k, mu, theta, circle);
        if (c->delta)
            track(c, c->e);
        clock = c->t;
        i = 1;
        c->drawn = 0;
    }
    for (; i < limit; i++) {
        double t;
        int64_t e, k;
        if (replay) {
            if (next >= c->sched_end)
                break; /* the schedule is out: no event held */
            t = c->sched_t[next];
            e = c->sched_e[next];
            k = c->sched_k[next];
            next++;
        } else {
            /* the six tempered words of the three draws: in place when the
             * block has them, word by word across a new block */
            if (index <= MT_N - 6) {
                w = tw + index;
                index += 6;
            } else {
                for (j = 0; j < 6; j++) {
                    if (index >= MT_N) {
                        next_block(mt, tw);
                        index = 0;
                    }
                    across[j] = tw[index++];
                }
                w = across;
            }
            t = clock - log(1.0 - random_double(w[0], w[1])) / m;
            e = (int64_t)(random_double(w[2], w[3]) * m);
            k = w[4] >> 31 ? 2 : 1; /* random() < 0.5: k = 1 */
        }
        if (t > max_time || t > next_probe) {
            c->drawn = 1;
            c->t = t;
            c->e = e;
            c->k = k;
            break;
        }
        apply_rule(op, edges, e, k, mu, theta, circle);
        if (c->delta)
            track(c, e);
        clock = t;
    }
    if (replay)
        c->sched_next = next;
    else
        mt[MT_N] = index;
    c->clock = clock;
    c->count += i;
    return i;
}

static int64_t cm_run(struct cm_ctx *c, int64_t limit, double next_probe)
{
    return c->mt ? run_chunk(c, 0, limit, next_probe) : run_chunk(c, 1, limit, next_probe);
}

/* W's exact fixed-point accumulator, after Neal 2015 (arXiv:1505.05571). A
 * finite double x >= 0 is a whole number of units of 2^-1074 below 2^2098:
 * its 53-bit significand shifted left by its biased exponent less one (by
 * none when subnormal). The sum is kept in 32-bit digits, digit k weighing
 * 2^(32k) units, each in an int64 word. Adding a term adds its three digit
 * parts, each below 2^32, to three words and carries nothing: a word takes
 * 2^30 such adds between two carry passes (ACC_TERMS) and stays below 2^63.
 * Up to 2^63 terms fit: the top bit lies below 2098 + 63, so the rounding's
 * window reads at most digit 68. */
#define ACC_DIGITS 70
#define ACC_TERMS (INT64_C(1) << 30)
#define DIGIT_MASK INT64_C(0xffffffff)

/* add the finite double x >= 0 to the digits d */
static inline void acc_add(int64_t *d, double x)
{
    uint64_t bits;

    memcpy(&bits, &x, sizeof bits);
    const uint64_t biased = bits >> 52, normal = biased != 0;
    const uint64_t mant = (bits & ((UINT64_C(1) << 52) - 1)) | normal << 52;
    const uint64_t shift = biased - normal, r = shift & 31;
    const uint64_t up = mant >> (32 - r); /* the parts at and above the next digit */
    int64_t *p = d + (shift >> 5);

    p[0] += (int64_t)((mant << r) & DIGIT_MASK);
    p[1] += (int64_t)(up & DIGIT_MASK);
    p[2] += (int64_t)(up >> 32);
}

/* move each digit's carry up, leaving every digit but the last below 2^32 */
static void acc_carry(int64_t *d)
{
    int k;

    for (k = 0; k < ACC_DIGITS - 1; k++) {
        d[k + 1] += d[k] >> 32;
        d[k] &= DIGIT_MASK;
    }
}

/* the digits' sum, rounded half-even to the nearest double: math.fsum's
 * value of the terms added, or +inf when it rounds past DBL_MAX */
static double acc_round(int64_t *d)
{
    uint64_t window, q, rest;
    int t, top, lo, j, sticky = 0;

    acc_carry(d);
    for (t = ACC_DIGITS - 1; t >= 0 && d[t] == 0; t--)
        ;
    if (t < 0)
        return 0.0;
    top = 32 * t + 63 - __builtin_clzll((uint64_t)d[t]); /* the highest bit set */
    /* the 64 bits from the highest set one down, and whether any bit below
     * is set; below bit 0 they are zeros, so a sum under 2^53 units (a
     * subnormal, or below 2^-1021) comes out exact */
    lo = top - 63;
    if (lo < 0) {
        window = ((uint64_t)d[0] | (uint64_t)d[1] << 32) << -lo;
    } else {
        const int k = lo >> 5, r = lo & 31;
        window = (uint64_t)d[k] | (uint64_t)d[k + 1] << 32;
        if (r)
            window = window >> r | (uint64_t)d[k + 2] << (64 - r);
        sticky = (d[k] & ((INT64_C(1) << r) - 1)) != 0;
        for (j = 0; j < k && !sticky; j++)
            sticky = d[j] != 0;
    }
    /* the top 53 bits, rounded half-even on the 11 below them and the rest */
    q = window >> 11;
    rest = window & 0x7ff;
    if (rest > 0x400 || (rest == 0x400 && (sticky || (q & 1))))
        q++;
    return ldexp((double)q, lo + 11 - 1074);
}

/* a nonzero gap below this in magnitude may make a product with another
 * nonzero gap that rounds to zero; two gaps at or above it cannot, as
 * 2^-537 * 2^-537 is the least subnormal */
#define TINY_GAP 0x1p-537

/* a * b < 0.0 for finite a and b, with no product that underflows: one
 * costs a microcode assist. a * b rounds to below zero, not to -0.0, just
 * when it is below -2^-1075 (half the least subnormal rounds half-even to
 * zero). Each factor scaled by 2^600 is exact, or infinite past 2^424,
 * where a product with any nonzero factor keeps its sign and lies beyond
 * that bound anyway; the scaled product is never subnormal, and it is below
 * -2^125 just when a * b is below -2^-1075. Rounded, it can reach -2^125
 * from below: then fma, rounding once, decides. */
static inline int product_below_zero(double a, double b)
{
    const double x = a * 0x1p600, y = b * 0x1p600, xy = x * y;

    if (xy == -0x1p125)
        return fma(x, y, 0x1p125) < 0.0;
    return xy < -0x1p125;
}

/* a nonzero gap under TINY_GAP in magnitude: the bits of |g| and of
 * TINY_GAP, each less one, compared unsigned, so that zero's wrap past all
 * others, with no branch */
static inline int tiny_gap(double g)
{
    const double a = fabs(g), tiny = TINY_GAP;
    uint64_t bits, below;

    memcpy(&bits, &a, sizeof bits);
    memcpy(&below, &tiny, sizeof below);
    return bits - 1 < below - 1;
}

/* cm_metrics' results besides W */
struct cm_probe {
    double top;           /* the largest |gap| */
    int64_t flips, pairs; /* the pairs of edges at one vertex whose gaps
                             multiply to below zero, and all such pairs */
};

/* The gap of edge f: given in d when op is NULL, else worked out from the
 * opinions op, mod_s(op[head] - op[tail]) on the circle. Below 2 in
 * magnitude fmod returns the gap as it is. The fold into (-1, 1] is wrap's,
 * bit for bit (g - 2 * 0 is g, -0.0 too), from two compares and no branch:
 * from a uniform start one gap in four folds, at random, where wrap's
 * branches would miss. */
static inline double probe_gap(const int64_t *edges, const double *op, const double *d,
                               int circle, int64_t f)
{
    double g;

    if (!op)
        return d[f];
    g = op[edges[2 * f + 1]] - op[edges[2 * f]];
    if (!circle)
        return g;
    if (fabs(g) >= 2.0)
        g = fmod(g, 2.0);
    return g - 2.0 * ((g > 1.0) - (g <= -1.0));
}

/* cm_metrics for one source of gaps (given, or from the opinions on the
 * circle or the interval): forced inline into cm_metrics with op and circle
 * constants, so each pass compiles without the others' branches */
static inline __attribute__((always_inline)) double
probe_pass(const int64_t *edges, int64_t m, const int64_t *start, const int64_t *ids,
           int64_t n, const double *op, const double *d, const int circle, uint64_t *signs,
           struct cm_probe *out)
{
    double top = 0.0;
    int64_t f, v, p, q, flips = 0, pairs = 0, w[ACC_DIGITS] = {0};
    int tiny = 0;

    for (f = 0; f < m; f++) {
        const double g = probe_gap(edges, op, d, circle, f), a = fabs(g);
        const uint64_t sign = (uint64_t)(g > 0.0) | (uint64_t)(g < 0.0) << 32;
        if (!(a <= DBL_MAX))
            return NAN; /* an infinite or NaN gap: the numpy path decides */
        top = a > top ? a : top;
        acc_add(w, a);
        if ((f & (ACC_TERMS - 1)) == ACC_TERMS - 1)
            acc_carry(w);
        signs[edges[2 * f]] += sign;
        signs[edges[2 * f + 1]] += sign;
        tiny |= tiny_gap(g);
    }
    for (v = 0; v < n; v++) {
        const int64_t degree = start[v + 1] - start[v];
        pairs += degree * (degree - 1) / 2;
        flips += (int64_t)((uint32_t)signs[v] * (signs[v] >> 32));
    }
    /* each tiny gap against every gap of the other sign at the same vertex;
     * a pair of two tiny gaps once, from its later one */
    for (v = 0; v < n && tiny; v++)
        for (p = start[v]; p < start[v + 1]; p++) {
            const double a = probe_gap(edges, op, d, circle, ids[p]);
            if (!tiny_gap(a))
                continue;
            for (q = start[v]; q < start[v + 1]; q++) {
                const double b = probe_gap(edges, op, d, circle, ids[q]);
                if ((a > 0.0 ? b < 0.0 : b > 0.0) && !(q > p && tiny_gap(b))
                        && !product_below_zero(a, b))
                    flips--;
            }
        }
    out->top = top;
    out->flips = flips;
    out->pairs = pairs;
    return acc_round(w);
}

/* One probe of the graph of m edges (tail, head) on n vertices, whose
 * incidence is start and ids: W, with the largest |gap| and the flips in
 * *out, of the gaps given in d when op is NULL, else of the opinions op.
 * One pass over the edges reads each gap once. It adds |gap| to W's
 * digits, and counts the gap's sign at both of its ends in signs: the n
 * counts pos + neg * 2^32 of a vertex's positive and negative gaps (a
 * vertex has fewer than 2^32 edges), zeroed by the caller. A vertex's flips
 * are its pos * neg, less the pairs of opposite signs with a tiny gap whose
 * product rounds to -0.0: only when the pass met a gap under TINY_GAP, a
 * second pass over the incidence works the gaps out again to find those. */
static double cm_metrics(const int64_t *edges, int64_t m, const int64_t *start,
                         const int64_t *ids, int64_t n, const double *op, const double *d,
                         int circle, uint64_t *signs, struct cm_probe *out)
{
    if (!op)
        return probe_pass(edges, m, start, ids, n, NULL, d, 0, signs, out);
    if (circle)
        return probe_pass(edges, m, start, ids, n, op, NULL, 1, signs, out);
    return probe_pass(edges, m, start, ids, n, op, NULL, 0, signs, out);
}

/* cm_graph's answers other than the id of an offending edge */
#define CM_SPLIT (-1)     /* not connected */
#define CM_CONNECTED (-2) /* connected, with its incidence built */
#define CM_NO_MEMORY (-3) /* the scratch could not be allocated */

/* One pass over the m edges (tail, head) of a graph on n vertices, as
 * Graph checks them. Returns the id of the first offending edge: the first
 * with an endpoint out of range or a self-loop, unless an earlier edge
 * repeats the pair of an edge before it. Else CM_CONNECTED when a walk from
 * vertex 0 reaches every vertex, CM_SPLIT when it does not. start and ids
 * receive the CSR incidence of the edges before the first out of range or
 * self-loop: the edges of vertex v are ids[start[v] .. start[v + 1]), in
 * ascending id order. */
static int64_t cm_graph(const int64_t *edges, int64_t m, int64_t n, int64_t *start,
                        int64_t *ids)
{
    int64_t f, v, p, q, end = m, first, reached = 1, *seen, *queue;

    for (f = 0; f < m && end == m; f++) {
        const int64_t a = edges[2 * f], b = edges[2 * f + 1];
        if (a < 0 || a >= n || b < 0 || b >= n || a == b)
            end = f;
    }
    /* counting sort of the ends of edges 0 .. end - 1: start[v + 1] counts
     * v's ends, the prefix sums make start[v] v's first slot, and the
     * in-order scatter moves each start[v] on to v + 1's first slot, which
     * one shift puts back */
    memset(start, 0, (size_t)(n + 1) * sizeof *start);
    for (f = 0; f < end; f++) {
        start[edges[2 * f] + 1]++;
        start[edges[2 * f + 1] + 1]++;
    }
    for (v = 0; v < n; v++)
        start[v + 1] += start[v];
    for (f = 0; f < end; f++) {
        ids[start[edges[2 * f]]++] = f;
        ids[start[edges[2 * f + 1]]++] = f;
    }
    memmove(start + 1, start, (size_t)n * sizeof *start);
    start[0] = 0;

    seen = malloc(2 * (size_t)n * sizeof *seen);
    if (seen == NULL)
        return CM_NO_MEMORY;
    queue = seen + n;
    /* at each vertex v, a neighbour stamped v already was reached by an
     * edge of lower id: the later id of the pair is a repeat */
    memset(seen, 0xff, (size_t)n * sizeof *seen);
    first = end;
    for (v = 0; v < n; v++)
        for (p = start[v]; p < start[v + 1]; p++) {
            f = ids[p];
            q = edges[2 * f] ^ edges[2 * f + 1] ^ v; /* the other end */
            if (seen[q] != v)
                seen[q] = v;
            else if (f < first)
                first = f;
        }
    if (first == m) {
        /* a walk from vertex 0 over the incidence, stamping each vertex it
         * reaches n; queue[0 .. reached) are the vertices reached */
        queue[0] = 0;
        seen[0] = n;
        for (q = 0; q < reached; q++) {
            v = queue[q];
            for (p = start[v]; p < start[v + 1]; p++) {
                f = ids[p];
                const int64_t w = edges[2 * f] ^ edges[2 * f + 1] ^ v;
                if (seen[w] != n) {
                    seen[w] = n;
                    queue[reached++] = w;
                }
            }
        }
    }
    free(seen);
    if (first < m)
        return first;
    return reached == n ? CM_CONNECTED : CM_SPLIT;
}

/* A Context: its struct cm_ctx, and the buffers its pointers are into, held
 * until it is freed (obj NULL where no array is given), in the order of the
 * constructor's arguments; the kernel writes those in WRITTEN */
enum { V_EDGES, V_STARTS, V_IDS, V_OP, V_MT, V_TIMES, V_EDGE_IDS, V_TIES, V_DELTA, V_XI, N_VIEWS };
#define WRITTEN (1 << V_OP | 1 << V_MT | 1 << V_DELTA | 1 << V_XI)

struct context {
    PyObject_HEAD
    struct cm_ctx c;
    Py_buffer views[N_VIEWS];
};

/* Context(edges, starts, ids, opinions, mu, theta, circle, clock, count,
 * max_time, **names): each array taken through the buffer protocol,
 * and its size checked once against m and n. The graph's tables are taken
 * as Graph checked them, and the edge ids before end as the engine did. */
static PyObject *context_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"edges", "starts", "ids", "opinions", "mu", "theta", "circle",
                            "clock", "count", "max_time", "mt", "times", "edge_ids", "ties",
                            "cursor", "end", "delta", "xi", "drawn", "t", "e", "k", NULL};
    struct context *self = (struct context *)type->tp_alloc(type, 0);
    PyObject *arrays[N_VIEWS] = {NULL};
    Py_buffer *v;
    double mu, theta, clock, max_time, t = 0.0;
    int circle, drawn = 0, j;
    long long count, cursor = 0, end = 0, e = 0, k = 0;
    Py_ssize_t m, n, events;

    if (self == NULL)
        return NULL;
    v = self->views;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOddpdLd|OOOOLLOOpdLL:Context", names, &arrays[V_EDGES],
            &arrays[V_STARTS], &arrays[V_IDS], &arrays[V_OP], &mu, &theta, &circle, &clock,
            &count, &max_time, &arrays[V_MT], &arrays[V_TIMES], &arrays[V_EDGE_IDS],
            &arrays[V_TIES], &cursor, &end, &arrays[V_DELTA], &arrays[V_XI], &drawn, &t, &e,
            &k))
        goto fail;
    for (j = 0; j < N_VIEWS; j++)
        if (arrays[j] != NULL && arrays[j] != Py_None
                && PyObject_GetBuffer(arrays[j], &v[j],
                                      WRITTEN >> j & 1 ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0)
            goto fail;
    /* in bytes: 8 an int64 or a double, 4 a state word */
    m = v[V_EDGES].len / 16;
    n = v[V_OP].len / 8;
    events = v[V_TIMES].len / 8;
    /* one source: the generator on a graph with edges, or a schedule */
    if (v[V_EDGES].len % 16 || v[V_OP].len % 8 || v[V_STARTS].len != 8 * (n + 1)
            || v[V_IDS].len != 16 * m
            || (v[V_MT].obj ? m == 0 || v[V_TIMES].obj || v[V_MT].len != 4 * (MT_N + 1)
                            : !v[V_TIMES].obj || v[V_TIMES].len % 8 || cursor < 0
                                  || cursor > end || end > events
                                  || v[V_EDGE_IDS].len != 8 * events || v[V_TIES].len != 8 * events)
            || (v[V_DELTA].obj && v[V_DELTA].len != 8 * m) || (v[V_XI].obj && v[V_XI].len != 8 * m)
            || (drawn && (e < 0 || e >= m))) {
        PyErr_SetString(PyExc_ValueError, "Context needs int64 edges, n + 1 starts, 2m ids, n "
                        "opinions, one source (625 state words on a graph with edges, or a "
                        "schedule with 0 <= cursor <= end <= its length), m gaps and m bounds, "
                        "and a held edge below m");
        goto fail;
    }
    self->c = (struct cm_ctx){
        .mt = v[V_MT].buf, .sched_t = v[V_TIMES].buf,
        .sched_e = v[V_EDGE_IDS].buf, .sched_k = v[V_TIES].buf, .sched_end = end,
        .sched_next = cursor, .edges = v[V_EDGES].buf, .op = v[V_OP].buf,
        .inc_start = v[V_STARTS].buf, .inc_ids = v[V_IDS].buf, .delta = v[V_DELTA].buf,
        .xi = v[V_XI].buf, .m = m, .mu = mu, .theta = theta, .circle = circle, .clock = clock,
        .count = count, .max_time = max_time, .drawn = drawn, .t = t, .e = e, .k = k};
    if (self->c.mt)
        temper_block(self->c.tw, self->c.mt); /* the block the state holds */
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static void context_dealloc(PyObject *self)
{
    int j;

    PyObject_GC_UnTrack(self);
    for (j = 0; j < N_VIEWS; j++)
        PyBuffer_Release(&((struct context *)self)->views[j]);
    Py_TYPE(self)->tp_free(self);
}

/* the arrays whose buffers a context holds: a cycle through one of them (an
 * array that holds the context's total_w) is the collector's to find */
static int context_traverse(PyObject *self, visitproc visit, void *arg)
{
    int j;

    for (j = 0; j < N_VIEWS; j++)
        Py_VISIT(((struct context *)self)->views[j].obj);
    return 0;
}

static PyObject *context_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    struct cm_ctx *c = &((struct context *)self)->c;
    long long limit;
    double next_probe;

    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "run takes limit and next_probe");
    if ((limit = PyLong_AsLongLong(args[0])) == -1 && PyErr_Occurred())
        return NULL;
    if ((next_probe = PyFloat_AsDouble(args[1])) == -1.0 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong(cm_run(c, limit, next_probe));
}

static PyObject *context_total_w(PyObject *self, PyObject *Py_UNUSED(unused))
{
    struct cm_ctx *c = &((struct context *)self)->c;

    return PyFloat_FromDouble(cm_total_w(c));
}

static PyMethodDef context_methods[] = {
    {"run", (PyCFunction)(void (*)(void))context_run, METH_FASTCALL, "cm_run: the events applied"},
    {"total_w", context_total_w, METH_NOARGS, "cm_total_w: T, the bound that rules a W stop out"},
    {NULL, NULL, 0, NULL},
};

/* read-only fields of struct cm_ctx */
#define MEMBER(name, type) {#name, type, offsetof(struct context, c.name), READONLY, NULL}

static PyMemberDef context_members[] = {
    MEMBER(clock, T_DOUBLE),
    MEMBER(count, T_LONGLONG),
    MEMBER(drawn, T_LONGLONG),
    MEMBER(t, T_DOUBLE),
    MEMBER(e, T_LONGLONG),
    MEMBER(k, T_LONGLONG),
    MEMBER(sched_next, T_LONGLONG),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ContextType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "compassmodel._kernel_c.Context",
    .tp_doc = "A kernel run's context: the run's struct cm_ctx, and its arrays' buffers",
    .tp_basicsize = sizeof(struct context),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = context_new,
    .tp_dealloc = context_dealloc,
    .tp_traverse = context_traverse,
    .tp_methods = context_methods,
    .tp_members = context_members,
};

/* metrics(edges, start, ids, values, circle, opinions): cm_metrics of the
 * int64 (m, 2) array edges on the n vertices of the n + 1 starts and 2m ids
 * of its incidence, of values, the n opinions when opinions is true, else
 * the m gaps, each array taken through the buffer protocol. Returns
 * (W, largest |gap|, flips, pairs); W is not finite, and the rest 0, when a
 * gap is not finite, or W when it rounds past DBL_MAX. */
static PyObject *metrics(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_buffer edges, start, ids, values;
    int circle, opinions;
    int64_t m, n;
    double w = NAN;
    uint64_t *signs = NULL;
    struct cm_probe out = {0.0, 0, 0};
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*y*y*y*pp", &edges, &start, &ids, &values, &circle,
                          &opinions))
        return NULL;
    m = edges.len / (2 * (Py_ssize_t)sizeof(int64_t));
    n = start.len / (Py_ssize_t)sizeof(int64_t) - 1;
    if (n < 0 || edges.len % (2 * sizeof(int64_t)) || start.len % sizeof(int64_t)
            || ids.len != 2 * m * (Py_ssize_t)sizeof(int64_t)
            || values.len != (opinions ? n : m) * (Py_ssize_t)sizeof(double))
        PyErr_SetString(PyExc_ValueError, "metrics needs int64 edges, n + 1 starts, 2m ids, "
                        "and n opinions or m gaps");
    else if ((signs = calloc((size_t)(n ? n : 1), sizeof *signs)) == NULL)
        PyErr_NoMemory();
    else {
        w = cm_metrics(edges.buf, m, start.buf, ids.buf, n, opinions ? values.buf : NULL,
                       opinions ? NULL : values.buf, circle, signs, &out);
        result = Py_BuildValue("ddLL", w, out.top, (long long)out.flips,
                               (long long)out.pairs);
    }
    free(signs);
    PyBuffer_Release(&edges);
    PyBuffer_Release(&start);
    PyBuffer_Release(&ids);
    PyBuffer_Release(&values);
    return result;
}

/* graph(edges, n, start, ids): cm_graph of the int64 (m, 2) array edges on
 * n vertices, into the int64 arrays start (n + 1 entries) and ids (2m),
 * each taken through the buffer protocol. None for a connected graph, whose
 * incidence start and ids then hold; else the id of the first offending
 * edge, or -1 when the graph is not connected. */
static PyObject *graph(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_buffer edges, start, ids;
    long long n;
    int64_t m, found = CM_NO_MEMORY;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*Lw*w*", &edges, &n, &start, &ids))
        return NULL;
    m = edges.len / (2 * (Py_ssize_t)sizeof(int64_t));
    if (n < 1 || n > INT64_C(1) << 32 || edges.len % (2 * sizeof(int64_t))
            || start.len != (n + 1) * (Py_ssize_t)sizeof(int64_t)
            || ids.len != 2 * m * (Py_ssize_t)sizeof(int64_t))
        PyErr_SetString(PyExc_ValueError, "graph needs int64 edges, 1 to 2**32 vertices, "
                        "and n + 1 starts and 2m ids");
    else {
        found = cm_graph(edges.buf, m, n, start.buf, ids.buf);
        if (found == CM_NO_MEMORY)
            PyErr_NoMemory();
        else if (found == CM_CONNECTED)
            result = Py_NewRef(Py_None);
        else
            result = PyLong_FromLongLong(found);
    }
    PyBuffer_Release(&edges);
    PyBuffer_Release(&start);
    PyBuffer_Release(&ids);
    return result;
}

static PyMethodDef methods[] = {
    {"metrics", metrics, METH_VARARGS, "cm_metrics: one probe's W, top, flips and pairs"},
    {"graph", graph, METH_VARARGS, "cm_graph: check a graph and build its incidence"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "compassmodel._kernel_c",
    .m_doc = "The compiled event kernel of compassmodel._kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel_c(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddType(m, &ContextType) < 0)
        Py_CLEAR(m);
    return m;
}
