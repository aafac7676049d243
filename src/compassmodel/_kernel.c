/* Compiled event loop for Poisson runs without observers, or observed by
 * one DifferenceTracker of the run's own state, the sums of W and the
 * probe metrics. Four entry points, each taking the context:
 *
 * cm_run applies up to c->limit events of a PoissonStream run with the three
 * draws of engine._run_loop (wait, edge, tie bit). An event the engine holds
 * (c->drawn set on entry: one drawn past a probe, or a parked pending event)
 * is applied first and counted among them. Every event goes through
 * apply_rule, which mirrors opinion_space.update_pair_compass and
 * update_pair_deffuant branch for branch, so the opinions, the clock and the
 * generator end bit for bit where stepping engine.apply_event would leave
 * them. When c->delta is set, track then mirrors DifferenceTracker.apply_event
 * branch for branch, so the tracked gaps and bounds end bit for bit where the
 * observer would leave them.
 *
 * When c->sum_w is set (the run has a W test), a chunk that completes its
 * limit leaves T, cm_total_w of the opinions it ends with, in c->w for the
 * W test due there; after any other chunk c->w is NaN. The engine ends
 * chunks at the budget, at its 2^20-event cap and at each test that sums;
 * the tests a sum rules out end none (see engine._run_loop).
 *
 * The generator is CPython's MT19937 (Modules/_randommodule.c): the state
 * words and index come from random.Random.getstate() and go back with
 * setstate(), and random() is the 53-bit double built from two words. A
 * block of MT_N words is made at once: next_block twists the state four
 * words a step with GCC vector extensions, then tempers all of it in one
 * vector pass into c->tw, which the context keeps across chunks. cm_run
 * keeps the index in a local for the whole chunk and writes it back once at
 * the end; an event reads its six tempered words in place when the block
 * has six left, and word by word across a new block. The tie bit is
 * random() < 0.5, which holds exactly when the fifth word is below 2^31;
 * the sixth word is drawn and not read. All of it is integer work, so the
 * words, and getstate(), are CPython's bit for bit.
 * Waiting times use libm's log, which math.log calls. Build without
 * floating-point contraction (-ffp-contract=off) and without fast-math, so
 * no product and sum fuse into one rounding that Python does not make.
 *
 * cm_total_w is engine._total_w in C: the left-to-right sum of the edge
 * distances in edge-id order, with the same fold, so bitwise the same sum;
 * cm_run calls it for T.
 *
 * cm_fsum is math.fsum of c->d[0 .. c->m): Shewchuk's partials and the
 * half-even correction of CPython's Modules/mathmodule.c, step for step. An
 * exactly rounded sum does not depend on the order of its terms, so it is
 * bitwise math.fsum's. On a NaN or an infinity among the terms, or on
 * overflow, it returns a value that is not finite, and _kernel.fsum asks
 * math.fsum for the value or the exception.
 *
 * cm_metrics is one probe of analysis.compute_metrics in one call. A walk
 * over the edges works out each signed gap into c->d (from the opinions,
 * with _chart's subtraction and fold; fmod only at |gap| >= 2, below which
 * it returns the gap unchanged), or reads the tracked gaps given there, and
 * keeps the largest |gap|. A walk over Graph.incidence counts, at each
 * vertex, the pairs of its edges and those whose gaps multiply to below
 * zero: pos * neg, or the products one by one at a vertex with a nonzero
 * |gap| under 2^-537, where a product of opposite signs can underflow to
 * -0.0. W is cm_fsum's sum of the |gap|s. At a gap that is not finite it
 * stops and returns NaN, and _kernel.metrics leaves the probe to the numpy
 * path, which gives the value or raises.
 */

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

/* Field for field the ctypes structure in _kernel.py. */
struct cm_ctx {
    uint32_t *mt;           /* getstate()'s words: MT_N state words, then the
                               index of the next one (MT_N: regenerate first) */
    uint32_t *tw;           /* MT_N words: the state words tempered, once
                               tempered is set */
    int64_t tempered;       /* 0 until cm_run first tempers the state's block */
    const int64_t *edges;   /* m rows of (tail, head): Graph.edge_array */
    double *op;             /* the opinions */
    const int64_t *inc_start, *inc_ids; /* Graph.incidence: the edges of vertex v
                               are inc_ids[inc_start[v] .. inc_start[v + 1]) */
    double *d;              /* cm_fsum's m terms; cm_metrics' m signed gaps */
    double *delta, *xi;     /* when delta is not NULL, a DifferenceTracker's m
                               gaps and, when xi is not NULL, its m bounds */
    int64_t m;
    double mu, theta;
    int64_t circle;
    double clock;           /* the time of the last applied event */
    double next_probe, max_time;
    int64_t limit;          /* apply at most this many events */
    int64_t drawn;          /* 1 when (t, e, k) is drawn and not applied: in, an
                               event held; out, one past next_probe or max_time */
    double t;
    int64_t e, k;
    int64_t sum_w;          /* 1 when the run has a W test */
    double w;               /* T, total_w of the opinions, when sum_w is set and
                               cm_run has just completed its limit; else NaN */
    int64_t n;              /* cm_metrics: the vertex count */
    double top;             /* cm_metrics' results: the largest |gap|, */
    int64_t flips, pairs;   /* the pairs of edges at one vertex whose gaps
                               multiply to below zero, and all such pairs */
};

/* four state words, unaligned loads and stores */
typedef uint32_t v4u __attribute__((vector_size(16)));

static inline v4u load4(const uint32_t *p)
{
    v4u v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store4(uint32_t *p, v4u v)
{
    memcpy(p, &v, sizeof v);
}

/* CPython's twist of state word x, whose next word is x1, against word xm,
 * for one word or four: mag01[y & 1] is -(x1 & 1) & MATRIX_A */
#define TWIST(x, x1, xm) \
    ((xm) ^ ((((x) & UPPER_MASK) | ((x1) & LOWER_MASK)) >> 1) ^ (-((x1) & 1U) & MATRIX_A))

/* CPython's tempering of all MT_N state words into tw, four at a time */
static void temper_block(uint32_t *tw, const uint32_t *mt)
{
    int kk;

    for (kk = 0; kk < MT_N; kk += 4) {
        v4u y = load4(mt + kk);
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= y >> 18;
        store4(tw + kk, y);
    }
}

/* CPython's genrand_uint32 regeneration of all MT_N state words, then
 * the new block tempered into tw */
static void next_block(uint32_t *mt, uint32_t *tw)
{
    int kk = 0;

    /* against words MT_M ahead, which this block has not twisted yet */
    for (; kk + 4 <= MT_N - MT_M; kk += 4)
        store4(mt + kk, TWIST(load4(mt + kk), load4(mt + kk + 1), load4(mt + kk + MT_M)));
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = TWIST(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    /* against words MT_N - MT_M (more than four) behind, twisted already */
    for (; kk + 4 <= MT_N - 1; kk += 4)
        store4(mt + kk, TWIST(load4(mt + kk), load4(mt + kk + 1),
                              load4(mt + kk + (MT_M - MT_N))));
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
 * k), update_pair_deffuant on the interval. Forced inline: gcc -O2 keeps a
 * plain static inline out of line in cm_run, a call per event. */
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

double cm_total_w(struct cm_ctx *c)
{
    const int64_t *edges = c->edges;
    const double *op = c->op;
    const int circle = c->circle != 0;
    double total = 0.0;
    int64_t f;

    for (f = 0; f < c->m; f++) {
        const double x = fabs(op[edges[2 * f]] - op[edges[2 * f + 1]]);
        total += (x <= 1.0 || !circle) ? x : 2.0 - x;
    }
    return total;
}

int64_t cm_run(struct cm_ctx *c)
{
    const int64_t *edges = c->edges;
    double *op = c->op;
    const double m = (double)c->m, mu = c->mu, theta = c->theta;
    const int circle = c->circle != 0;
    const double next_probe = c->next_probe, max_time = c->max_time;
    const int64_t limit = c->limit;
    uint32_t *mt = c->mt, *tw = c->tw, index = mt[MT_N], across[6];
    const uint32_t *w;
    double clock = c->clock;
    int64_t i = 0;
    int j;

    if (!c->tempered) {
        /* the block the state holds, tempered once for the run */
        temper_block(tw, mt);
        c->tempered = 1;
    }
    if (c->drawn) {
        /* the event the engine held: apply it ahead of the draws */
        apply_rule(op, edges, c->e, c->k, mu, theta, circle);
        if (c->delta)
            track(c, c->e);
        clock = c->t;
        i = 1;
        c->drawn = 0;
    }
    for (; i < limit; i++) {
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
        const double t = clock - log(1.0 - random_double(w[0], w[1])) / m;
        const int64_t e = (int64_t)(random_double(w[2], w[3]) * m);
        const int64_t k = w[4] >> 31 ? 2 : 1; /* random() < 0.5: k = 1 */
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
    mt[MT_N] = index;
    c->clock = clock;
    /* a chunk that completes its limit ends at the W test, if any is due */
    c->w = c->sum_w && i == limit ? cm_total_w(c) : NAN;
    return i;
}

/* The partials do not overlap, and the bits of finite doubles span 2^-1074
 * to 2^1023, so there are at most 2098 of them. */
#define FSUM_PARTIALS 2098

/* math.fsum of d[0 .. m), or of their absolute values */
static double fsum(const double *d, int64_t m, int absolute)
{
    double p[FSUM_PARTIALS], x, y, t, hi, yr, lo = 0.0;
    int64_t f, i, j, n = 0;

    for (f = 0; f < m; f++) {
        x = absolute ? fabs(d[f]) : d[f];
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x) || n == FSUM_PARTIALS)
                return x + INFINITY; /* special terms or overflow: math.fsum decides */
            p[n++] = x;
        }
    }
    /* sum the partials from the top down until the sum becomes inexact */
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* half-even rounding across the partials: when the rest below lo has
         * lo's sign, the exact sum lies beyond the halfway point lo marks */
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

double cm_fsum(struct cm_ctx *c)
{
    return fsum(c->d, c->m, 0);
}

/* a nonzero gap below this in magnitude may make a product with another
 * nonzero gap that rounds to zero; two gaps at or above it cannot, as
 * 2^-537 * 2^-537 is the least subnormal */
#define TINY_GAP 0x1p-537

double cm_metrics(struct cm_ctx *c)
{
    const int64_t *edges = c->edges, *start = c->inc_start, *ids = c->inc_ids;
    const double *op = c->op;
    double *d = c->d, top = 0.0;
    int64_t f, v, p, q, flips = 0, pairs = 0;

    /* the gaps: from the opinions when op is set, else given in d */
    for (f = 0; f < c->m; f++) {
        double g = d[f];
        if (op) {
            g = op[edges[2 * f + 1]] - op[edges[2 * f]];
            /* mod_s: below 2 in magnitude fmod returns the gap as it is */
            if (c->circle)
                g = wrap(fabs(g) >= 2.0 ? fmod(g, 2.0) : g);
            d[f] = g;
        }
        const double a = fabs(g);
        if (!(a <= DBL_MAX))
            return NAN; /* an infinite or NaN gap: the numpy path decides */
        if (a > top)
            top = a;
    }
    /* the pairs of edges at each vertex, and those whose gaps multiply to
     * below zero: pos * neg, unless a tiny gap at the vertex asks for the
     * products one by one */
    for (v = 0; v < c->n; v++) {
        const int64_t s = start[v], e = start[v + 1];
        int64_t pos = 0, neg = 0, tiny = 0;
        for (p = s; p < e; p++) {
            const double g = d[ids[p]];
            pos += g > 0.0;
            neg += g < 0.0;
            tiny |= g != 0.0 && fabs(g) < TINY_GAP;
        }
        pairs += (e - s) * (e - s - 1) / 2;
        if (!tiny)
            flips += pos * neg;
        else
            for (p = s; p < e; p++)
                for (q = p + 1; q < e; q++)
                    flips += d[ids[p]] * d[ids[q]] < 0.0;
    }
    c->top = top;
    c->flips = flips;
    c->pairs = pairs;
    return fsum(d, c->m, 1);
}
