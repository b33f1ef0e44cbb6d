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
 *   - "keep" flags index the set bits of a candidate mask in ascending
 *     cell order, exactly the order the scalar low-bit extraction walks.
 */

#include <stdint.h>
#include <string.h>

#define SD_ABI_VERSION 3

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

/* Keep the i-th set bit (ascending cell order) of cand iff keep[i],
 * over n_rows contiguous rows sharing one keep stream (the batched
 * samplers' one-big-draw contract).  Returns the number of keep flags
 * consumed.  Mirror of repro.pcm.line._apply_keep. */
int sd_apply_keep_rows(const uint8_t *cand, int n_rows, int row_bytes,
                       const uint8_t *keep, uint8_t *out) {
    int i = 0;
    const int total = n_rows * row_bytes;
    for (int b = 0; b < total; ++b) {
        uint8_t c = cand[b];
        uint8_t o = 0;
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            if (keep[i++]) o |= low;
            c = (uint8_t)(c ^ low);
        }
        out[b] = o;
    }
    return i;
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

/* DIN decode: XOR 0xFF into every byte whose flag bit is set. */
void sd_din_decode(const uint8_t *stored, const uint8_t *flags,
                   int n_rows, int row_bytes, uint8_t *out) {
    for (int r = 0; r < n_rows; ++r) {
        const uint8_t *s = stored + (size_t)r * row_bytes;
        const uint8_t *fl = flags + (size_t)r * (row_bytes / 8);
        uint8_t *o = out + (size_t)r * row_bytes;
        for (int i = 0; i < row_bytes; ++i) {
            o[i] = (uint8_t)(s[i] ^ (((fl[i >> 3] >> (i & 7)) & 1) ? 0xFF : 0x00));
        }
    }
}

/* Little-endian bit packing of a 0/1 byte vector (np.packbits
 * bitorder="little" over n bits; out must hold (n+7)/8 bytes). */
void sd_pack_bits(const uint8_t *bits, int n, uint8_t *out) {
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        if (bits[i]) out[i >> 3] |= (uint8_t)(1u << (i & 7));
    }
}

/* Threshold-pack: bit i set iff draws[i] < p (the flip/weak-mask
 * recipe `rng.random(n) < p` fused with the pack). */
void sd_pack_less_than(const double *draws, int n, double p, uint8_t *out) {
    memset(out, 0, (size_t)((n + 7) / 8));
    for (int i = 0; i < n; ++i) {
        if (draws[i] < p) out[i >> 3] |= (uint8_t)(1u << (i & 7));
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
