/* Compiled bit-kernels for the SD-PCM simulator's write inner loops.
 *
 * A CPython extension module (repro.pcm.kernels._kernels), built from
 * this one file against the running interpreter's Python.h and loaded
 * by compiled_backend.py.  Every function mirrors a retained
 * pure-Python reference in repro.pcm.line / repro.pcm.din
 * byte-for-byte; the property-based equivalence suite
 * (tests/test_kernel_backends.py) pins that contract.
 *
 * Calling conventions:
 *   - a line travels as a Python int in [0, 2**512); bit i is cell i
 *     (byte i>>3, bit i&7 of the 64 little-endian bytes the C loops
 *     walk), and results come back as ints;
 *   - the samplers draw from the caller's numpy Generator through its
 *     bit generator's "BitGenerator" capsule: bitgen_t.next_double is
 *     the function Generator.random(n) calls n times, so the stream is
 *     numpy's draw for draw.  They draw one uniform per candidate bit in
 *     ascending cell order, exactly the order the scalar low-bit
 *     extraction walks;
 *   - every fallible step (int conversion, for a list every element;
 *     the capsule lookup; the float parse; buffer allocation) comes
 *     before the first draw, and the draw loops cannot fail, so a call
 *     that raises leaves the caller's stream untouched.  Only building
 *     the result ints follows the draws, and it fails only when memory
 *     runs out;
 *   - the seeded generators take the key as the little-endian uint32
 *     words numpy's SeedSequence coerces it to (the coercion, with its
 *     errors, stays in Python) and read no caller stream.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* The loader accepts a module only with this ABI. */
#define SD_ABI_VERSION 7

#define LINE_BYTES 64
#define DIN_TABLE_BYTES (256 * 256)

/* numpy's bitgen_t (numpy/random/bitgen.h): the struct behind a
 * BitGenerator's "BitGenerator" capsule. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* DIN's [old][raw] LUTs, installed once at load by set_din_tables. */
static uint8_t stored_tab[DIN_TABLE_BYTES];
static uint8_t invert_tab[DIN_TABLE_BYTES];
static int have_din_tables = 0;

/* ---- argument conversion ---------------------------------------------- */

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want) return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* An int in [0, 2**512) as 64 little-endian bytes; -1 with an exception
 * set for anything else. */
static int line_from_int(PyObject *value, uint8_t *out) {
    if (!PyLong_Check(value)) {
        PyErr_Format(PyExc_TypeError, "expected an int line, got %.100s",
                     Py_TYPE(value)->tp_name);
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000
    Py_ssize_t need = PyLong_AsNativeBytes(
        value, out, LINE_BYTES,
        Py_ASNATIVEBYTES_LITTLE_ENDIAN | Py_ASNATIVEBYTES_UNSIGNED_BUFFER
            | Py_ASNATIVEBYTES_REJECT_NEGATIVE);
    if (need < 0) return -1;
    if (need > LINE_BYTES) {
        PyErr_SetString(PyExc_OverflowError, "line int exceeds 512 bits");
        return -1;
    }
    return 0;
#else
    return _PyLong_AsByteArray((PyLongObject *)value, out, LINE_BYTES, 1, 0);
#endif
}

/* The unsigned little-endian int of nbytes bytes. */
static PyObject *int_from_bytes(const uint8_t *buf, size_t nbytes) {
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(buf, nbytes,
                                          Py_ASNATIVEBYTES_LITTLE_ENDIAN);
#else
    return _PyLong_FromByteArray(buf, nbytes, 1, 0);
#endif
}

static bitgen_t *stream_of(PyObject *capsule) {
    return (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
}

/* A float argument; -1 with an exception set when it is not one. */
static int double_of(PyObject *obj, double *out) {
    *out = PyFloat_AsDouble(obj);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* A non-negative count argument. */
static int count_of(PyObject *obj, Py_ssize_t *out) {
    *out = PyLong_AsSsize_t(obj);
    if (*out == -1 && PyErr_Occurred()) return -1;
    if (*out < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        return -1;
    }
    return 0;
}

/* ---- disturbance sampling --------------------------------------------- */

/* Keep each set bit of cand (nbytes bytes, ascending cell order) iff a
 * fresh uniform is below p: one draw per candidate bit, none for the
 * clear ones.  Over several contiguous rows this is the batched
 * sampler's one-big-draw contract.  Mirror of repro.pcm.line
 * sample_masks_int (rng.random(total) < p, scattered in order). */
static void keep_bits(const uint8_t *cand, Py_ssize_t nbytes, double p,
                      bitgen_t *bg, uint8_t *out) {
    for (Py_ssize_t b = 0; b < nbytes; ++b) {
        uint8_t c = cand[b];
        uint8_t o = 0;
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            o |= (uint8_t)(low & -(uint8_t)(bg->next_double(bg->state) < p));
            c = (uint8_t)(c ^ low);
        }
        out[b] = o;
    }
}

/* sample_keep(candidates, p, capsule): candidates is one int line (an
 * int comes back) or a list/tuple of them (a list comes back, the rows
 * drawn back to back). */
static PyObject *sd_sample_keep(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs) {
    (void)self;
    if (check_nargs("sample_keep", nargs, 3) < 0) return NULL;
    PyObject *cand = args[0];
    double p;
    bitgen_t *bg;

    if (!PyList_Check(cand) && !PyTuple_Check(cand)) {
        uint8_t in[LINE_BYTES], out[LINE_BYTES];
        if (line_from_int(cand, in) < 0 || double_of(args[1], &p) < 0
            || (bg = stream_of(args[2])) == NULL)
            return NULL;
        keep_bits(in, LINE_BYTES, p, bg, out);
        return int_from_bytes(out, LINE_BYTES);
    }

    Py_ssize_t n = PySequence_Fast_GET_SIZE(cand);
    PyObject **items = PySequence_Fast_ITEMS(cand);
    PyObject *result = NULL;
    uint8_t *rows = PyMem_Malloc((size_t)n * 2 * LINE_BYTES);
    if (rows == NULL) return PyErr_NoMemory();
    uint8_t *kept = rows + (size_t)n * LINE_BYTES;
    for (Py_ssize_t r = 0; r < n; ++r) {
        if (line_from_int(items[r], rows + (size_t)r * LINE_BYTES) < 0)
            goto done;
    }
    if (double_of(args[1], &p) < 0 || (bg = stream_of(args[2])) == NULL
        || (result = PyList_New(n)) == NULL)
        goto done;
    keep_bits(rows, n * LINE_BYTES, p, bg, kept);
    for (Py_ssize_t r = 0; r < n; ++r) {
        PyObject *value = int_from_bytes(kept + (size_t)r * LINE_BYTES,
                                         LINE_BYTES);
        if (value == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, r, value);
    }
done:
    PyMem_Free(rows);
    return result;
}

/* draw_less_than(n, p, capsule): bit i set iff draw i of n fresh
 * uniforms is below p -- the flip-mask recipe `rng.random(n) < p` fused
 * with the pack.  Always draws n uniforms. */
static PyObject *sd_draw_less_than(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    Py_ssize_t n;
    double p;
    bitgen_t *bg;
    if (check_nargs("draw_less_than", nargs, 3) < 0 || count_of(args[0], &n) < 0
        || double_of(args[1], &p) < 0 || (bg = stream_of(args[2])) == NULL)
        return NULL;
    size_t nbytes = (size_t)(n + 7) / 8;
    uint8_t local[LINE_BYTES];
    uint8_t *out = nbytes <= LINE_BYTES ? local : PyMem_Malloc(nbytes);
    if (out == NULL) return PyErr_NoMemory();
    memset(out, 0, nbytes);
    for (Py_ssize_t i = 0; i < n; ++i)
        out[i >> 3] |= (uint8_t)((bg->next_double(bg->state) < p) << (i & 7));
    PyObject *result = int_from_bytes(out, nbytes);
    if (out != local) PyMem_Free(out);
    return result;
}

/* ---- positions -------------------------------------------------------- */

static inline int ctz8(uint8_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctz((unsigned)v);
#else
    int n = 0;
    while (!(v & 1)) { v >>= 1; ++n; }
    return n;
#endif
}

/* bit_positions(value): the ascending set-bit positions of a line. */
static PyObject *sd_bit_positions(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs) {
    (void)self;
    uint8_t buf[LINE_BYTES];
    if (check_nargs("bit_positions", nargs, 1) < 0
        || line_from_int(args[0], buf) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL) return NULL;
    for (int b = 0; b < LINE_BYTES; ++b) {
        uint8_t c = buf[b];
        while (c) {
            uint8_t low = (uint8_t)(c & (uint8_t)(-c));
            PyObject *pos = PyLong_FromLong(b * 8 + ctz8(low));
            if (pos == NULL || PyList_Append(out, pos) < 0) {
                Py_XDECREF(pos);
                Py_DECREF(out);
                return NULL;
            }
            Py_DECREF(pos);
            c = (uint8_t)(c ^ low);
        }
    }
    return out;
}

/* ---- DIN inversion coding --------------------------------------------- */

/* set_din_tables(stored, invert): install the two 65536-byte [old][raw]
 * LUTs from repro.pcm.din (din_tables()). */
static PyObject *sd_set_din_tables(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (check_nargs("set_din_tables", nargs, 2) < 0) return NULL;
    for (int t = 0; t < 2; ++t) {
        if (!PyBytes_Check(args[t]) || PyBytes_GET_SIZE(args[t]) != DIN_TABLE_BYTES) {
            PyErr_SetString(PyExc_ValueError,
                            "DIN tables must be 65536-byte bytes objects");
            return NULL;
        }
    }
    memcpy(stored_tab, PyBytes_AS_STRING(args[0]), DIN_TABLE_BYTES);
    memcpy(invert_tab, PyBytes_AS_STRING(args[1]), DIN_TABLE_BYTES);
    have_din_tables = 1;
    Py_RETURN_NONE;
}

/* din_encode(old, raw) -> (stored, flags): DIN per-byte inversion
 * coding, one LUT gather per byte; flag bit i marks byte i inverted. */
static PyObject *sd_din_encode(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs) {
    (void)self;
    uint8_t old[LINE_BYTES], raw[LINE_BYTES], stored[LINE_BYTES];
    if (check_nargs("din_encode", nargs, 2) < 0 || line_from_int(args[0], old) < 0
        || line_from_int(args[1], raw) < 0)
        return NULL;
    if (!have_din_tables) {
        PyErr_SetString(PyExc_RuntimeError, "DIN tables not installed");
        return NULL;
    }
    uint64_t flags = 0;
    for (int i = 0; i < LINE_BYTES; ++i) {
        const int idx = ((int)old[i] << 8) | raw[i];
        stored[i] = stored_tab[idx];
        flags |= (uint64_t)invert_tab[idx] << i;
    }
    PyObject *s = int_from_bytes(stored, LINE_BYTES);
    if (s == NULL) return NULL;
    PyObject *f = PyLong_FromUnsignedLongLong(flags);
    if (f == NULL) {
        Py_DECREF(s);
        return NULL;
    }
    PyObject *pair = PyTuple_Pack(2, s, f);
    Py_DECREF(s);
    Py_DECREF(f);
    return pair;
}

/* ---- seeded generation -------------------------------------------------
 *
 * Bit-exact numpy.random.default_rng(entropy): SeedSequence with the
 * default pool of four 32-bit words seeds a PCG64 (128-bit LCG, XSL-RR
 * output).  `entropy` is the key already coerced to little-endian 32-bit
 * words the way numpy coerces it (see compiled_backend._entropy).  Needs
 * a compiler with unsigned __int128 (GCC and Clang both have it). */

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

static inline uint32_t entropy_word(const uint8_t *entropy, Py_ssize_t i) {
    const uint8_t *w = entropy + 4 * i;
    return (uint32_t)w[0] | (uint32_t)w[1] << 8 | (uint32_t)w[2] << 16
           | (uint32_t)w[3] << 24;
}

typedef struct { u128 state, inc; } pcg64_t;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline uint64_t pcg64_next(pcg64_t *rng) {
    rng->state = rng->state * PCG_MULT + rng->inc;
    const uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

static void pcg64_seed(pcg64_t *rng, const uint8_t *entropy, Py_ssize_t n) {
    uint32_t pool[SS_POOL];
    uint32_t hc = SS_INIT_A;
    for (int i = 0; i < SS_POOL; ++i)
        pool[i] = ss_hashmix(i < n ? entropy_word(entropy, i) : 0u, &hc);
    for (int s = 0; s < SS_POOL; ++s)
        for (int d = 0; d < SS_POOL; ++d)
            if (s != d) pool[d] = ss_mix(pool[d], ss_hashmix(pool[s], &hc));
    for (Py_ssize_t s = SS_POOL; s < n; ++s)  /* entropy longer than the pool */
        for (int d = 0; d < SS_POOL; ++d)
            pool[d] = ss_mix(pool[d], ss_hashmix(entropy_word(entropy, s), &hc));
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

/* The entropy argument: a bytes object of whole uint32 words. */
static int seeded_from(PyObject *entropy, pcg64_t *rng) {
    if (!PyBytes_Check(entropy) || PyBytes_GET_SIZE(entropy) % 4) {
        PyErr_SetString(PyExc_TypeError,
                        "entropy must be bytes of little-endian uint32 words");
        return -1;
    }
    pcg64_seed(rng, (const uint8_t *)PyBytes_AS_STRING(entropy),
               PyBytes_GET_SIZE(entropy) / 4);
    return 0;
}

/* seeded_words(entropy, n): the bytes of
 * default_rng(entropy).integers(0, 2**64, n, dtype=uint64) -- full-range
 * draws are the raw PCG64 outputs, in native byte order as numpy's
 * tobytes() gives them. */
static PyObject *sd_seeded_words(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs) {
    (void)self;
    Py_ssize_t n;
    pcg64_t rng;
    if (check_nargs("seeded_words", nargs, 2) < 0 || count_of(args[1], &n) < 0
        || seeded_from(args[0], &rng) < 0)
        return NULL;
    PyObject *out = PyBytes_FromStringAndSize(NULL, n * 8);
    if (out == NULL) return NULL;
    char *dst = PyBytes_AS_STRING(out);
    for (Py_ssize_t i = 0; i < n; ++i) {
        const uint64_t word = pcg64_next(&rng);
        memcpy(dst + 8 * i, &word, 8);
    }
    return out;
}

/* seeded_less_than(entropy, p, n): bit i set iff
 * default_rng(entropy).random(n)[i] < p (random() is the top 53 bits of
 * one output). */
static PyObject *sd_seeded_less_than(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs) {
    (void)self;
    Py_ssize_t n;
    double p;
    pcg64_t rng;
    if (check_nargs("seeded_less_than", nargs, 3) < 0
        || double_of(args[1], &p) < 0 || count_of(args[2], &n) < 0
        || seeded_from(args[0], &rng) < 0)
        return NULL;
    size_t nbytes = (size_t)(n + 7) / 8;
    uint8_t local[LINE_BYTES];
    uint8_t *out = nbytes <= LINE_BYTES ? local : PyMem_Malloc(nbytes);
    if (out == NULL) return PyErr_NoMemory();
    memset(out, 0, nbytes);
    for (Py_ssize_t i = 0; i < n; ++i) {
        const double d = (double)(pcg64_next(&rng) >> 11) * (1.0 / 9007199254740992.0);
        out[i >> 3] |= (uint8_t)((d < p) << (i & 7));
    }
    PyObject *result = int_from_bytes(out, nbytes);
    if (out != local) PyMem_Free(out);
    return result;
}

/* seeded_state(entropy) -> (state, inc): the 128-bit PCG64 state and
 * increment of default_rng(entropy), as PCG64.state reports them. */
static PyObject *sd_seeded_state(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs) {
    (void)self;
    pcg64_t rng;
    if (check_nargs("seeded_state", nargs, 1) < 0
        || seeded_from(args[0], &rng) < 0)
        return NULL;
    uint8_t buf[32];
    for (int i = 0; i < 16; ++i) {
        buf[i] = (uint8_t)(rng.state >> (8 * i));
        buf[16 + i] = (uint8_t)(rng.inc >> (8 * i));
    }
    PyObject *state = int_from_bytes(buf, 16);
    if (state == NULL) return NULL;
    PyObject *inc = int_from_bytes(buf + 16, 16);
    if (inc == NULL) {
        Py_DECREF(state);
        return NULL;
    }
    PyObject *pair = PyTuple_Pack(2, state, inc);
    Py_DECREF(state);
    Py_DECREF(inc);
    return pair;
}

/* ---- module ------------------------------------------------------------ */

#define SD_FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))sd_##name, METH_FASTCALL, NULL}

static PyMethodDef sd_methods[] = {
    SD_FASTCALL(sample_keep),
    SD_FASTCALL(draw_less_than),
    SD_FASTCALL(bit_positions),
    SD_FASTCALL(set_din_tables),
    SD_FASTCALL(din_encode),
    SD_FASTCALL(seeded_words),
    SD_FASTCALL(seeded_less_than),
    SD_FASTCALL(seeded_state),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sd_module = {
    PyModuleDef_HEAD_INIT,
    "_kernels",
    "Compiled bit-kernels of the SD-PCM simulator (see _kernels.c).",
    -1,
    sd_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void) {
    PyObject *module = PyModule_Create(&sd_module);
    if (module != NULL && PyModule_AddIntConstant(module, "ABI", SD_ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
