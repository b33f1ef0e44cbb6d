/* Compiled bit-kernels for the SD-PCM simulator's write inner loops.
 *
 * Pure C with no Python.h dependency: the library is loaded through
 * ctypes, so one shared object serves every CPython version (and the
 * build needs only a C compiler, not Python headers).  Every function
 * mirrors a retained pure-Python reference in repro.pcm.line /
 * repro.pcm.din byte-for-byte; the property-based equivalence suite
 * (tests/test_kernel_backends.py) pins that contract.
 *
 * Layout conventions (matching the Python int domain):
 *   - a line is 64 little-endian bytes; bit i of the 512-bit integer is
 *     byte i>>3, bit i&7 — ascending byte, ascending bit order;
 *   - the samplers draw one uniform per candidate bit in ascending cell
 *     order, exactly the order the scalar low-bit extraction walks;
 *   - uniforms come from the caller's numpy BitGenerator through its
 *     bitgen_t next_double pointer, the function Generator.random(n)
 *     calls n times, so the stream is numpy's draw for draw.
 */

#include <stdint.h>
#include <string.h>

#define SD_ABI_VERSION 5

/* Loader probe: the Python side checks the ABI before trusting the lib. */
int sd_abi_version(void) { return SD_ABI_VERSION; }

static inline int ctz8(uint8_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctz((unsigned)v);
#else
    int n = 0;
    while (!(v & 1)) { v >>= 1; ++n; }
    return n;
#endif
}

/* A numpy bitgen_t's next_double: one uniform in [0, 1) per call. */
typedef double (*sd_next_double)(void *state);

/* Keep each set bit of cand (nbytes bytes, ascending cell order) iff a
 * fresh uniform is below p: one draw per candidate bit, none for the
 * clear ones.  Over several contiguous rows this is the batched
 * samplers' one-big-draw contract.  Mirror of repro.pcm.line
 * sample_masks_int (rng.random(total) < p, scattered in order). */
void sd_sample_keep(const uint8_t *cand, int nbytes, double p,
                    sd_next_double next, void *state, uint8_t *out) {
    for (int b = 0; b < nbytes; ++b) {
        uint8_t c = cand[b];
        uint8_t o = 0;
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            if (next(state) < p) o |= low;
            c = (uint8_t)(c ^ low);
        }
        out[b] = o;
    }
}

/* DIN per-byte inversion coding: one LUT gather per byte.  Tables are
 * the 256x256 C-contiguous uint8 arrays from repro.pcm.din
 * (_stored_table / _invert_table); flags_out is n_rows * 8 bytes and
 * must be zeroed by the caller. */
void sd_din_encode(const uint8_t *oldb, const uint8_t *rawb,
                   const uint8_t *stored_tab, const uint8_t *invert_tab,
                   int n_rows, int row_bytes,
                   uint8_t *stored_out, uint8_t *flags_out) {
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *o = oldb + (size_t)r * row_bytes;
        const uint8_t *w = rawb + (size_t)r * row_bytes;
        uint8_t *s = stored_out + (size_t)r * row_bytes;
        uint8_t *f = flags_out + (size_t)r * (row_bytes / 8);
        for (int i = 0; i < row_bytes; ++i) {
            const int idx = ((int)o[i] << 8) | w[i];
            s[i] = stored_tab[idx];
            f[i >> 3] |= (uint8_t)(invert_tab[idx] << (i & 7));
        }
    }
}

/* Bit i set iff draw i of n fresh uniforms is below p, packed into
 * (n+7)/8 bytes: the flip-mask recipe `rng.random(n) < p` fused with
 * the pack.  Always draws n uniforms. */
void sd_draw_less_than(int n, double p, sd_next_double next, void *state,
                       uint8_t *out) {
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        if (next(state) < p) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}

/* Ascending set-bit positions; returns the count. */
int sd_bit_positions(const uint8_t *buf, int nbytes, int32_t *out) {
    int k = 0;
    for (int b = 0; b < nbytes; ++b) {
        uint8_t c = buf[b];
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            out[k++] = (int32_t)(b * 8 + ctz8(low));
            c = (uint8_t)(c ^ low);
        }
    }
    return k;
}

/* ---- seeded generation -------------------------------------------------
 *
 * Bit-exact numpy.random.default_rng(entropy): SeedSequence with the
 * default pool of four 32-bit words seeds a PCG64 (128-bit LCG, XSL-RR
 * output).  `entropy` is the key already coerced to 32-bit words the way
 * numpy coerces it (see compiled_backend._entropy).  Needs a compiler
 * with unsigned __int128 (GCC and Clang both have it). */

typedef unsigned __int128 u128;

#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y) {
    uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

typedef struct { u128 state, inc; } pcg64_t;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline uint64_t pcg64_next(pcg64_t *rng) {
    rng->state = rng->state * PCG_MULT + rng->inc;
    const uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

static void pcg64_seed(pcg64_t *rng, const uint32_t *entropy, int n) {
    uint32_t pool[SS_POOL];
    uint32_t hc = SS_INIT_A;
    for (int i = 0; i < SS_POOL; ++i)
        pool[i] = ss_hashmix(i < n ? entropy[i] : 0u, &hc);
    for (int s = 0; s < SS_POOL; ++s)
        for (int d = 0; d < SS_POOL; ++d)
            if (s != d) pool[d] = ss_mix(pool[d], ss_hashmix(pool[s], &hc));
    for (int s = SS_POOL; s < n; ++s)  /* entropy longer than the pool */
        for (int d = 0; d < SS_POOL; ++d)
            pool[d] = ss_mix(pool[d], ss_hashmix(entropy[s], &hc));
    /* generate_state(4, uint64): eight words cycling over the pool. */
    uint64_t words[4] = {0, 0, 0, 0};
    uint32_t hb = SS_INIT_B;
    for (int i = 0; i < 8; ++i) {
        uint32_t v = pool[i % SS_POOL] ^ hb;
        hb *= SS_MULT_B;
        v *= hb;
        words[i >> 1] |= (uint64_t)(v ^ (v >> 16)) << (32 * (i & 1));
    }
    rng->state = 0;
    rng->inc = ((((u128)words[2] << 64) | words[3]) << 1) | 1u;
    pcg64_next(rng);
    rng->state += ((u128)words[0] << 64) | words[1];
    pcg64_next(rng);
}

/* default_rng(entropy).integers(0, 2**64, n, dtype=uint64): full-range
 * draws are the raw PCG64 outputs. */
void sd_seeded_words(const uint32_t *entropy, int n_entropy,
                     uint64_t *out, int n) {
    pcg64_t rng;
    pcg64_seed(&rng, entropy, n_entropy);
    for (int i = 0; i < n; ++i) out[i] = pcg64_next(&rng);
}

/* default_rng(entropy).random(n) < p, packed little-endian into
 * (n+7)/8 bytes (random() is the top 53 bits of one output). */
void sd_seeded_less_than(const uint32_t *entropy, int n_entropy,
                         double p, int n, uint8_t *out) {
    pcg64_t rng;
    pcg64_seed(&rng, entropy, n_entropy);
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        const double d = (double)(pcg64_next(&rng) >> 11) * (1.0 / 9007199254740992.0);
        if (d < p) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}
