/* Compiled bit-kernels for the SD-PCM simulator's write inner loops,
 * and the replay's event loop.
 *
 * A CPython extension module (repro.pcm.kernels._kernels), built from
 * this one file against the running interpreter's Python.h and loaded
 * by compiled_backend.py.  Every function mirrors a retained
 * pure-Python reference in repro.pcm.line / repro.pcm.din
 * byte-for-byte; the property-based equivalence suite
 * (tests/test_kernel_backends.py) pins that contract.  The NativeLoop
 * type mirrors repro.core.engine.EventLoop, whose subclass
 * NativeEventLoop runs every replay on the compiled backend
 * (tests/test_event_loop.py pins the two loops together).
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
#define SD_ABI_VERSION 9

#define LINE_BYTES 64
#define LINE_WORDS 8
/* Lines in one row (one 4 KB page). */
#define ROW_LINES 64
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

/* The stream `steps` outputs ahead: the LCG's O(log steps) jump (Brown,
 * "Random number generation with arbitrary strides"), as numpy's
 * PCG64.advance computes it. */
static void pcg64_advance(pcg64_t *rng, u128 steps) {
    u128 mult = PCG_MULT, plus = rng->inc, acc_mult = 1, acc_plus = 0;
    while (steps) {
        if (steps & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus = (mult + 1) * plus;
        mult *= mult;
        steps >>= 1;
    }
    rng->state = acc_mult * rng->state + acc_plus;
}

/* seeded_line(entropy, line): line `line` of a row's pristine image, i.e.
 * words 8*line .. 8*line+7 of
 * default_rng(entropy).integers(0, 2**64, 512, dtype=uint64)
 * (full-range draws are the raw PCG64 outputs) as the little-endian int
 * of their native bytes, the bytes numpy's tobytes() gives them. */
static PyObject *sd_seeded_line(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs) {
    (void)self;
    Py_ssize_t line;
    pcg64_t rng;
    if (check_nargs("seeded_line", nargs, 2) < 0 || count_of(args[1], &line) < 0
        || seeded_from(args[0], &rng) < 0)
        return NULL;
    if (line >= ROW_LINES) {
        PyErr_Format(PyExc_ValueError, "line %zd outside a %d-line row",
                     line, ROW_LINES);
        return NULL;
    }
    pcg64_advance(&rng, (u128)LINE_WORDS * (u128)line);
    uint8_t buf[LINE_BYTES];
    for (int i = 0; i < LINE_WORDS; ++i) {
        const uint64_t word = pcg64_next(&rng);
        memcpy(buf + 8 * i, &word, 8);
    }
    return int_from_bytes(buf, LINE_BYTES);
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

/* ---- event loop --------------------------------------------------------
 *
 * NativeLoop holds a replay's pending events in a binary heap of C
 * structs keyed by (time, seq) as C integers, so it builds no tuple per
 * event.  An event stores the time object its caller passed; the drain
 * hands that object to the callback and reports it as `now`, as the
 * reference heap does.  The type is GC-tracked: pending events hold
 * bound methods of the engine and controller, which hold the loop, so a
 * replay that raises leaves a cycle only the collector can free. */

typedef struct {
    long long time;
    unsigned long long seq;
    PyObject *time_obj;
    PyObject *fn;
    PyObject *args; /* a tuple */
} sd_event;

typedef struct {
    PyObject_HEAD
    sd_event *heap;
    Py_ssize_t len, cap;
    long long now;
    PyObject *now_obj;
    unsigned long long seq;
} sd_loop;

/* Raised by the drain when an event's time precedes `now`; installed at
 * load by set_time_error (repro.errors.SimulationError). */
static PyObject *time_error = NULL;

/* Callback arguments passed on the C stack; an event with more goes
 * through a tuple. */
#define LOOP_STACK_ARGS 8

static inline int event_before(const sd_event *a, const sd_event *b) {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Queue fn(*args, time), without a clamp, taking new references to
 * time_obj, fn and args. */
static int loop_insert(sd_loop *self, PyObject *time_obj, long long time,
                       PyObject *fn, PyObject *args) {
    if (self->len == self->cap) {
        Py_ssize_t cap = self->cap ? 2 * self->cap : 64;
        sd_event *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(sd_event));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->heap = heap;
        self->cap = cap;
    }
    sd_event ev = {time, self->seq++, time_obj, fn, args};
    Py_INCREF(time_obj);
    Py_INCREF(fn);
    Py_INCREF(args);
    sd_event *heap = self->heap;
    Py_ssize_t i = self->len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!event_before(&ev, &heap[parent])) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = ev;
    return 0;
}

/* Remove the least event into *out; the caller owns its references. */
static void loop_pop(sd_loop *self, sd_event *out) {
    sd_event *heap = self->heap;
    *out = heap[0];
    sd_event last = heap[--self->len];
    Py_ssize_t len = self->len, i = 0;
    if (len == 0) return;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= len) break;
        if (child + 1 < len && event_before(&heap[child + 1], &heap[child]))
            ++child;
        if (!event_before(&heap[child], &last)) break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
}

static void event_release(sd_event *ev) {
    Py_DECREF(ev->time_obj);
    Py_DECREF(ev->fn);
    Py_DECREF(ev->args);
}

static PyObject *loop_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    (void)args;
    (void)kwds;
    sd_loop *self = (sd_loop *)type->tp_alloc(type, 0);
    if (self == NULL) return NULL;
    self->now_obj = PyLong_FromLong(0);
    if (self->now_obj == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* Defined so that a subclass's __init__ resolves here, not further
 * along its MRO. */
static int loop_init(PyObject *self, PyObject *args, PyObject *kwds) {
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_Format(PyExc_TypeError, "%.100s() takes no arguments",
                     Py_TYPE(self)->tp_name);
        return -1;
    }
    return 0;
}

static int loop_traverse(sd_loop *self, visitproc visit, void *arg) {
    for (Py_ssize_t i = 0; i < self->len; ++i) {
        Py_VISIT(self->heap[i].time_obj);
        Py_VISIT(self->heap[i].fn);
        Py_VISIT(self->heap[i].args);
    }
    Py_VISIT(self->now_obj);
    return 0;
}

/* Drop every pending event.  `now_obj` stays: a cycle through it also
 * runs through an object whose own clear breaks it. */
static int loop_clear(sd_loop *self) {
    sd_event *heap = self->heap;
    Py_ssize_t len = self->len;
    self->heap = NULL;
    self->len = self->cap = 0;
    for (Py_ssize_t i = 0; i < len; ++i) event_release(&heap[i]);
    PyMem_Free(heap);
    return 0;
}

static void loop_dealloc(sd_loop *self) {
    PyObject_GC_UnTrack(self);
    loop_clear(self);
    Py_CLEAR(self->now_obj);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* A time argument: an int that fits a C long long. */
static int time_of(PyObject *obj, long long *out) {
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* push(time, fn, args): queue fn(*args, time); `time` must not precede
 * `now` (no clamp). */
static PyObject *loop_push(sd_loop *self, PyObject *const *args,
                           Py_ssize_t nargs) {
    long long time;
    if (check_nargs("push", nargs, 3) < 0 || time_of(args[0], &time) < 0)
        return NULL;
    if (!PyTuple_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "push() args must be a tuple");
        return NULL;
    }
    if (loop_insert(self, args[0], time, args[1], args[2]) < 0) return NULL;
    Py_RETURN_NONE;
}

/* schedule(time, fn, *args): push, with a time before `now` moved to `now`. */
static PyObject *loop_schedule(sd_loop *self, PyObject *const *args,
                               Py_ssize_t nargs) {
    long long time;
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "schedule() takes at least 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (time_of(args[0], &time) < 0) return NULL;
    PyObject *time_obj = args[0];
    if (time < self->now) {
        time = self->now;
        time_obj = self->now_obj;
    }
    PyObject *rest = PyTuple_New(nargs - 2);
    if (rest == NULL) return NULL;
    for (Py_ssize_t i = 2; i < nargs; ++i) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(rest, i - 2, args[i]);
    }
    int status = loop_insert(self, time_obj, time, args[1], rest);
    Py_DECREF(rest);
    if (status < 0) return NULL;
    Py_RETURN_NONE;
}

/* fn(*args, time) through vectorcall, one slot before the arguments
 * left free so a bound method can prepend its self in place. */
static PyObject *event_call(const sd_event *ev) {
    Py_ssize_t n = PyTuple_GET_SIZE(ev->args);
    if (n >= LOOP_STACK_ARGS) {
        PyObject *all = PyTuple_New(n + 1);
        if (all == NULL) return NULL;
        for (Py_ssize_t i = 0; i < n; ++i) {
            PyObject *item = PyTuple_GET_ITEM(ev->args, i);
            Py_INCREF(item);
            PyTuple_SET_ITEM(all, i, item);
        }
        Py_INCREF(ev->time_obj);
        PyTuple_SET_ITEM(all, n, ev->time_obj);
        PyObject *result = PyObject_Call(ev->fn, all, NULL);
        Py_DECREF(all);
        return result;
    }
    PyObject *stack[LOOP_STACK_ARGS + 1];
    for (Py_ssize_t i = 0; i < n; ++i)
        stack[i + 1] = PyTuple_GET_ITEM(ev->args, i);
    stack[n + 1] = ev->time_obj;
    return PyObject_Vectorcall(ev->fn, stack + 1,
                               (size_t)(n + 1) | PY_VECTORCALL_ARGUMENTS_OFFSET,
                               NULL);
}

/* drain(): dispatch events in (time, seq) order until none is pending.
 * An event that raises propagates its exception and leaves the rest
 * queued. */
static PyObject *loop_drain(sd_loop *self, PyObject *unused) {
    (void)unused;
    sd_event ev;
    while (self->len > 0) {
        loop_pop(self, &ev);
        if (ev.time < self->now) {
            event_release(&ev);
            PyErr_SetString(time_error ? time_error : PyExc_RuntimeError,
                            "time went backwards");
            return NULL;
        }
        self->now = ev.time;
        Py_INCREF(ev.time_obj);
        Py_SETREF(self->now_obj, ev.time_obj);
        PyObject *result = event_call(&ev);
        event_release(&ev);
        if (result == NULL) return NULL;
        Py_DECREF(result);
    }
    Py_RETURN_NONE;
}

static PyObject *loop_get_now(sd_loop *self, void *closure) {
    (void)closure;
    Py_INCREF(self->now_obj);
    return self->now_obj;
}

static PyObject *loop_get_pending(sd_loop *self, void *closure) {
    (void)closure;
    return PyLong_FromSsize_t(self->len);
}

static PyMethodDef loop_methods[] = {
    {"push", (PyCFunction)(void (*)(void))loop_push, METH_FASTCALL,
     "push(time, fn, args): queue fn(*args, time), with no clamp."},
    {"schedule", (PyCFunction)(void (*)(void))loop_schedule, METH_FASTCALL,
     "schedule(time, fn, *args): push at max(time, now)."},
    {"drain", (PyCFunction)loop_drain, METH_NOARGS,
     "drain(): dispatch every pending event in (time, seq) order."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef loop_getset[] = {
    {"now", (getter)loop_get_now, NULL,
     "Time of the event being (or last) dispatched.", NULL},
    {"pending", (getter)loop_get_pending, NULL, "Events not yet dispatched.",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject sd_loop_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_kernels.NativeLoop",
    .tp_basicsize = sizeof(sd_loop),
    .tp_dealloc = (destructor)loop_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The replay's event heap and dispatch loop (see _kernels.c).",
    .tp_traverse = (traverseproc)loop_traverse,
    .tp_clear = (inquiry)loop_clear,
    .tp_methods = loop_methods,
    .tp_getset = loop_getset,
    .tp_init = loop_init,
    .tp_new = loop_new,
};

/* set_time_error(cls): the exception a drain raises when time goes
 * backwards. */
static PyObject *sd_set_time_error(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (check_nargs("set_time_error", nargs, 1) < 0) return NULL;
    if (!PyExceptionClass_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "expected an exception class");
        return NULL;
    }
    Py_INCREF(args[0]);
    Py_XSETREF(time_error, args[0]);
    Py_RETURN_NONE;
}

/* ---- module ------------------------------------------------------------ */

#define SD_FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))sd_##name, METH_FASTCALL, NULL}

static PyMethodDef sd_methods[] = {
    SD_FASTCALL(set_time_error),
    SD_FASTCALL(sample_keep),
    SD_FASTCALL(draw_less_than),
    SD_FASTCALL(bit_positions),
    SD_FASTCALL(set_din_tables),
    SD_FASTCALL(din_encode),
    SD_FASTCALL(seeded_line),
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
    if (PyType_Ready(&sd_loop_type) < 0) return NULL;
    PyObject *module = PyModule_Create(&sd_module);
    if (module == NULL) return NULL;
    Py_INCREF(&sd_loop_type);
    if (PyModule_AddIntConstant(module, "ABI", SD_ABI_VERSION) < 0
        || PyModule_AddObject(module, "NativeLoop", (PyObject *)&sd_loop_type) < 0) {
        Py_DECREF(&sd_loop_type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
