/* The compiled event-loop kernel behind `repro.sim.backends.c_backend`.
 *
 * The kernel replays the reference engine (`repro.sim.engine`) for the
 * plans `c_backend.py` admits: per-node SJF/FIFO heaps, store-and-
 * forward hand-offs, the drain of finished jobs stranded at a heap top,
 * the greedy F-value scores and the least-loaded volume reads.  Instead
 * of one global event heap it sweeps each node lazily up to the next
 * instant anything can observe it (`node_next`), which visits the same
 * events in an order that cannot change any float the schedule reads.
 * Bit parity with the reference engine is the contract (checked with
 * exact `==` by `tests/test_backends.py` and case by case by
 * `repro fuzz --backends`), so three rules govern every edit here:
 *
 *   1. Every floating-point expression keeps the reference engine's
 *      exact operand order and association.  IEEE-754 doubles are
 *      deterministic when the op sequence is; the build deliberately
 *      compiles with `-O2 -ffp-contract=off` and never `-ffast-math`,
 *      so the compiler may not fuse, reorder or approximate these ops.
 *      On x86-64 this is plain SSE2 double arithmetic (no x87 excess
 *      precision); 32-bit x86 builds force `-msse2 -mfpmath=sse`.
 *   2. The per-node priority heaps replicate CPython's `heapq` sift
 *      algorithms *exactly* (`heappush` = append + siftdown, and the
 *      raw appends into an empty heap), because the F-value summation
 *      iterates the heap in array order — the same comparison outcomes
 *      must produce the same array layout as the engine's heap.
 *   3. Heap entries are packed int64s `(rank << 32) | job_index`.
 *      Ranks are unique per node — except kind 3's unrelated leaf
 *      ranks, which tie exactly when the leaf sizes do, and there the
 *      job index (rows are in (release, id) order) breaks the tie — so
 *      packed comparisons order exactly like the engine's
 *      `(priority key, job id)` tuples, and the payload decodes in O(1).
 *
 * Dynamic events (NodeDown / NodeUp / Cancel) are a second sorted input
 * merged into the arrival loop with the engine's tie rule: completions,
 * then dynamic events, then arrivals.  Each event first syncs the chain
 * it touches to its instant, so the lazy sweep stays invisible.  A down
 * node is marked by the `DOWN` sentinel in `actives`: it only absorbs
 * pushes until its NodeUp, and the event-free hot paths pay nothing for
 * the check (their idle tests compare against `IDLE` exactly).
 *
 * The Python side (`c_backend.py`) precomputes every input column,
 * allocates every output buffer, and assembles `SimulationResult`; the
 * kernel owns only its scratch state.  The per-node heaps and pending
 * lists start small and grow by doubling, so scratch memory follows
 * the deepest backlog rather than `n_jobs * n_nodes`.  The struct
 * below is the ABI — bump REPRO_KERNEL_ABI whenever its layout (or any
 * semantic) changes, so stale cached shared objects can never be
 * loaded.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_KERNEL_ABI 3

#define IDX_MASK 0xffffffffLL

/* Initial per-node capacity of the heap and pending buffers. */
#define INIT_CAP 16

/* Status codes returned by repro_run. */
#define ST_OK 0
#define ST_MAX_EVENTS 1
#define ST_NOMEM 2
#define ST_BAD_ARGS 3

/* `actives` values that are not job indices. */
#define IDLE (-1L)
#define DOWN (-2L)

/* Dynamic event kinds (the `dyn_kind` column). */
#define DYN_DOWN 0
#define DYN_UP 1
#define DYN_CANCEL 2

typedef struct {
    /* sizes and limits */
    int64_t n_jobs;
    int64_t n_nodes;
    int64_t max_path;
    int64_t max_events;
    int64_t policy_kind; /* 0 fixed, 1 greedy-identical, 2 least-loaded,
                            3 greedy-unrelated */
    int64_t use_agg;     /* maintain congestion aggregates (kind 2) */
    int64_t n_entries;
    int64_t n_tops;
    int64_t n_cands;
    int64_t n_paths;
    int64_t n_uniq; /* kind 3: distinct per-leaf sizes */
    int64_t n_dyn;  /* dynamic events */
    double weight;  /* greedy 6/eps^2 */
    double ftol_atol; /* finished_tol(p) = max(atol, rtol * p) */
    double ftol_rtol;
    /* topology (dense preorder node index, root excluded) */
    const int32_t *chain_off;    /* [n_nodes + 1] */
    const int32_t *chain_concat; /* ancestor chains, root-adjacent..node */
    const uint8_t *is_leaf;      /* [n_nodes] */
    const uint8_t *enc;          /* [n_nodes] encoded-heap nodes */
    const double *speed;         /* [n_nodes] */
    /* path table (node-index sequences, deduplicated) */
    const int32_t *path_off;    /* [n_paths] */
    const int32_t *path_len;    /* [n_paths] */
    const int32_t *path_concat; /* flattened paths */
    /* job columns */
    const double *rel;        /* [n_jobs] */
    const double *size;       /* [n_jobs] */
    const double *ftol_size;  /* [n_jobs] */
    const int64_t *job_id;    /* [n_jobs] */
    const int64_t *rank;      /* [n_jobs] node-key rank (sjf or fifo) */
    const int64_t *leaf_rank; /* [n_jobs] leaf-key rank (kinds 0-2) */
    /* policy kind 0: precomputed per-job assignment */
    const int32_t *job_path_id; /* [n_jobs] */
    const double *p_leaf_in;    /* [n_jobs] */
    const double *ftol_leaf_in; /* [n_jobs] */
    /* policy kind 1: per-branch argmin records of GreedyIdentical */
    const int32_t *entry_ni;            /* [n_entries] root-adjacent nodes */
    const double *entry_min_steps;      /* [n_entries] */
    const int64_t *entry_tie_leaf_id;   /* [n_entries] min-(steps,leaf) leaf */
    const int32_t *entry_tie_path;      /* [n_entries] its path id */
    const int64_t *entry_min_leaf_id;   /* [n_entries] weight_p==0 leaf */
    const int32_t *entry_min_leaf_path; /* [n_entries] its path id */
    /* kinds 1 and 3: every leaf per entry, in leaves_under order */
    const int32_t *el_off;     /* [n_entries + 1] */
    const int64_t *el_leaf_id; /* [n_leaves] */
    const int32_t *el_leaf_ni; /* [n_leaves] */
    const double *el_steps;    /* [n_leaves] depth below the root */
    const int32_t *el_path;    /* [n_leaves] path id */
    /* policy kind 2: least-loaded candidate layout */
    const int32_t *tops_ni;      /* [n_tops] root children, in order */
    const int64_t *cand_leaf_id; /* [n_cands] */
    const int32_t *cand_leaf_ni; /* [n_cands] */
    const int32_t *cand_top_pos; /* [n_cands] index into tops */
    const double *cand_d;        /* [n_cands] d_v as a double */
    const int32_t *cand_path;    /* [n_cands] path id */
    /* policy kind 3: p_{j,v}, row j in el (entry-leaf) column order */
    const double *leaf_p;      /* [n_jobs * n_leaves] */
    const double *leaf_p_uniq; /* [n_uniq] sorted distinct values */
    /* dynamic events, in the schedule's canonical order */
    const double *dyn_time; /* [n_dyn] */
    const int32_t *dyn_kind; /* [n_dyn] DYN_* */
    const int32_t *dyn_arg;  /* [n_dyn] node index, or job row (-1: none) */
    /* outputs (allocated by Python) */
    int32_t *out_path_id;    /* [n_jobs] chosen path per job */
    double *out_avail;       /* [n_jobs * max_path] */
    int32_t *out_avail_cnt;  /* [n_jobs] */
    double *out_comp;        /* [n_jobs * max_path] */
    int32_t *out_comp_cnt;   /* [n_jobs] */
    double *out_deficit;     /* [n_jobs] */
    double *out_cancel;      /* [n_jobs] cancel instants (NaN-filled by
                                Python; NULL without cancels) */
    int64_t *out_num_events; /* [1] */
} KernelArgs;

/* One admission waiting at a node: its arrival instant and heap key
 * (the job index is the key's payload). */
typedef struct {
    double t;
    int64_t key;
} Pend;

/* Mutable kernel state (scratch: one malloc block for the fixed-size
 * columns, plus one growable heap and pending list per node). */
typedef struct {
    const KernelArgs *a;
    long mp; /* max_path */
    long num_events;
    int status;
    /* per node */
    int64_t **heap; /* [m] -> heap_cap entries */
    long *heap_len;
    long *heap_cap;
    Pend **pend; /* [m] -> pend_cap entries; pis..pend_len-1 outstanding */
    long *pend_len;
    long *pend_cap;
    long *pis;
    long *actives;
    double *astarts;
    double *arems;
    double *node_next;
    long *tc;   /* through_count */
    double *tv; /* through_volume */
    double *qv; /* queue_volume */
    /* per job */
    double *rem;
    long *hop;
    int32_t *jpath_off;
    int32_t *jpath_len;
    double *p_leaf;
    double *ftol_leaf;
    double *prev_end;
    const int64_t *lrank; /* leaf-key rank: leaf_rank, or kind 3's own */
    /* policy scratch */
    double *bases;    /* n_entries */
    double *top_load; /* n_tops */
    long n_leaves;    /* entries' leaves (el columns) */
    long n_down;      /* nodes currently down */
    /* kind 1 under outages: per-entry records over unblocked leaves */
    long *f_kept;
    double *f_steps;
    int64_t *f_tie_leaf;
    int32_t *f_tie_path;
    int64_t *f_min_leaf;
    int32_t *f_min_path;
    /* kind 3: alive jobs per leaf, ascending job id (finished and
     * cancelled rows are dropped lazily by the F' scan) */
    int32_t **alive;
    long *alive_len;
    long *alive_cap;
    int64_t *lrank3; /* [n_jobs] */
} K;

int repro_abi_version(void) { return REPRO_KERNEL_ABI; }

/* ---- CPython heapq, replicated exactly (unique int64 entries) ------- */

static inline void hpush(int64_t *h, long *len, int64_t item) {
    /* heappush: append, then _siftdown(heap, 0, len-1). */
    long pos = (*len)++;
    while (pos > 0) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (item < parent) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = item;
}

/* _siftup(heap, pos) with slot `pos` vacated and `newitem` to place:
 * walk the smaller child up to a leaf, then _siftdown back towards
 * `pos`. */
static inline void siftup_item(int64_t *h, long endpos, long pos,
                               int64_t newitem) {
    long startpos = pos;
    long childpos = 2 * pos + 1;
    while (childpos < endpos) {
        long rightpos = childpos + 1;
        if (rightpos < endpos && !(h[childpos] < h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    /* _siftdown(heap, startpos, pos) */
    while (pos > startpos) {
        long parentpos = (pos - 1) >> 1;
        int64_t parent = h[parentpos];
        if (newitem < parent) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

static inline void hpop(int64_t *h, long *len) {
    /* heappop with the return value discarded: pop the last element,
     * move it to the root, _siftup(heap, 0). */
    int64_t newitem = h[--(*len)];
    if (*len)
        siftup_item(h, *len, 0, newitem);
}

/* heapify: _siftup every parent, last first.  (CPython's cache-friendly
 * variant for large heaps visits the same nodes children-first too, so
 * it builds the same array.) */
static void heapify(int64_t *h, long len) {
    for (long i = len / 2 - 1; i >= 0; i--)
        siftup_item(h, len, i, h[i]);
}

/* ---- small helpers --------------------------------------------------- */

static inline int64_t pack(int64_t rank, long idx) {
    return (rank << 32) | (int64_t)idx;
}

static inline void comp_append(K *k, long i, double t) {
    k->a->out_comp[(size_t)i * k->mp + k->a->out_comp_cnt[i]++] = t;
}

static inline void avail_append(K *k, long i, double t) {
    k->a->out_avail[(size_t)i * k->mp + k->a->out_avail_cnt[i]++] = t;
}

/* Double a per-node buffer; 0 (with ST_NOMEM set) if realloc fails,
 * leaving the old buffer in place. */
static int grow(K *k, void **buf, long *cap, size_t elem) {
    void *p = realloc(*buf, (size_t)(2 * *cap) * elem);
    if (!p) {
        k->status = ST_NOMEM;
        return 0;
    }
    *buf = p;
    *cap *= 2;
    return 1;
}

/* Node ni's heap with room for one entry past `len`, or NULL when it
 * could not grow. */
static inline int64_t *heap_room(K *k, long ni, long len) {
    if (len == k->heap_cap[ni] &&
        !grow(k, (void **)&k->heap[ni], &k->heap_cap[ni], sizeof(int64_t)))
        return NULL;
    return k->heap[ni];
}

/* Append an admission to node ni's pending list.  A list whose every
 * entry has been admitted restarts at slot 0, so it holds only the
 * node's outstanding admissions. */
static inline int pend_push(K *k, long ni, double t, int64_t key) {
    long len = k->pend_len[ni];
    if (k->pis[ni] == len)
        k->pis[ni] = len = 0;
    if (len == k->pend_cap[ni] &&
        !grow(k, (void **)&k->pend[ni], &k->pend_cap[ni], sizeof(Pend)))
        return 0;
    k->pend[ni][len].t = t;
    k->pend[ni][len].key = key;
    k->pend_len[ni] = len + 1;
    return 1;
}

/* Emission of job `ji` to node `nxt` at time `t`.  The fused
 * idle-child admission exists only at `advance_node`'s encoded-heap
 * emission sites (`allow_fused`); `admit_now`'s drain always appends
 * to the pending list. */
static inline void emit(K *k, long nxt, double t, long ji, int allow_fused) {
    const KernelArgs *a = k->a;
    if (a->enc[nxt]) {
        if (allow_fused && k->actives[nxt] == IDLE && k->heap_len[nxt] == 0 &&
            k->pis[nxt] >= k->pend_len[nxt]) {
            /* Fused admission: idle child with every prior admission
             * consumed — place the run directly (state-identical to
             * push-settle-drain-rearm, minus a pending append). */
            int64_t *h = k->heap[nxt];
            h[0] = pack(a->rank[ji], ji);
            k->heap_len[nxt] = 1;
            k->actives[nxt] = ji;
            k->astarts[nxt] = t;
            double r = k->rem[ji];
            k->arems[nxt] = r;
            k->node_next[nxt] = t + r / a->speed[nxt];
            if (a->use_agg)
                k->qv[nxt] += r;
            return;
        }
    }
    /* Unrelated-setting SJF leaves order by (p_leaf, release, id); the
     * per-leaf rank orders identically. */
    int64_t rank = a->enc[nxt] ? a->rank[ji] : k->lrank[ji];
    if (!pend_push(k, nxt, t, pack(rank, ji)))
        return;
    if (t < k->node_next[nxt])
        k->node_next[nxt] = t;
}

/* Completion body shared by the completion-only sweep and the general
 * loop: one definition, so the two paths cannot drift apart. */
static inline void complete_job(K *k, long ni, long ji, double astart,
                                double arem, double finish, int is_leaf,
                                int agg) {
    const KernelArgs *a = k->a;
    double *rem = k->rem;
    if (agg) {
        double residual = rem[ji]; /* == arem: frozen while active */
        k->tc[ni] -= 1;
        k->tv[ni] -= residual;
        k->qv[ni] -= residual;
    }
    rem[ji] = 0.0;
    comp_append(k, ji, finish);
    if (is_leaf) {
        double pl = k->p_leaf[ji];
        a->out_deficit[ji] +=
            (pl - arem) / pl * (astart - k->prev_end[ji]) +
            (2.0 * pl - arem) / (2.0 * pl) * (finish - astart);
    }
    long h = k->hop[ji] + 1;
    k->hop[ji] = h;
    if (h < k->jpath_len[ji]) {
        long nxt = a->path_concat[k->jpath_off[ji] + h];
        if (a->is_leaf[nxt]) {
            rem[ji] = k->p_leaf[ji];
            k->prev_end[ji] = finish;
        } else {
            rem[ji] = a->size[ji];
        }
        avail_append(k, ji, finish);
        emit(k, nxt, finish, ji, 1);
    }
}

/* Drain of a finished residual stranded at the heap top (completed at
 * the admission instant `t`, residual dropped). */
static inline void drain_job(K *k, long ni, long ti, double t, int is_leaf,
                             int agg, int allow_fused) {
    const KernelArgs *a = k->a;
    double *rem = k->rem;
    double residual = rem[ti];
    if (agg) {
        k->tc[ni] -= 1;
        k->tv[ni] -= residual;
        k->qv[ni] -= residual;
    }
    rem[ti] = 0.0;
    comp_append(k, ti, t);
    if (is_leaf) {
        double pl = k->p_leaf[ti];
        a->out_deficit[ti] += (pl - residual) / pl * (t - k->prev_end[ti]);
    }
    k->hop[ti] += 1;
    long h = k->hop[ti];
    if (h < k->jpath_len[ti]) {
        long nxt = a->path_concat[k->jpath_off[ti] + h];
        if (a->is_leaf[nxt]) {
            rem[ti] = k->p_leaf[ti];
            k->prev_end[ti] = t;
        } else {
            rem[ti] = a->size[ti];
        }
        avail_append(k, ti, t);
        emit(k, nxt, t, ti, allow_fused);
    }
}

/* ---- the batched per-node sweep ------------------------------------- */

/* A down node only accepts pushes (the engine's down-branch enqueue):
 * absorb the admissions due by `limit`, serve nothing. */
static void absorb_down(K *k, long ni, double limit) {
    const Pend *pend = k->pend[ni];
    long pi = k->pis[ni];
    long npend = k->pend_len[ni];
    long hlen = k->heap_len[ni];
    int64_t *heap = k->heap[ni];
    while (pi < npend && pend[pi].t <= limit) {
        int64_t key = pend[pi].key;
        if (!(heap = heap_room(k, ni, hlen)))
            break;
        hpush(heap, &hlen, key);
        if (k->a->use_agg)
            k->qv[ni] += k->rem[key & IDX_MASK];
        pi += 1;
    }
    k->pis[ni] = pi;
    k->heap_len[ni] = hlen;
    k->node_next[ni] = pi < npend ? pend[pi].t : INFINITY;
}

/* Process node ni's completions and admissions due at or before
 * `limit`.  Emissions land on ni's children, never on ni, so its
 * pending list cannot change under the loop. */
static void advance_node(K *k, long ni, double limit) {
    if (k->status)
        return;
    const KernelArgs *a = k->a;
    const Pend *pend = k->pend[ni];
    long pi = k->pis[ni];
    int64_t *heap = k->heap[ni];
    long hlen = k->heap_len[ni];
    long active = k->actives[ni];
    double astart = k->astarts[ni];
    double arem = k->arems[ni];
    double speed = a->speed[ni];
    int is_leaf = a->is_leaf[ni];
    int agg = (int)a->use_agg;
    const double *ftol = is_leaf ? k->ftol_leaf : a->ftol_size;
    long npend = k->pend_len[ni];
    long num_events = k->num_events;
    double *rem = k->rem;

    if (pi >= npend) {
        /* Completion-only sweep: no outstanding admissions (always the
         * case for root-adjacent nodes), and none can appear mid-loop
         * (emissions land on other nodes). */
        while (active >= 0) {
            double finish = astart + arem / speed;
            if (finish > limit)
                break;
            hpop(heap, &hlen);
            complete_job(k, ni, active, astart, arem, finish, is_leaf, agg);
            num_events += 1;
            if (hlen) {
                active = (long)(heap[0] & IDX_MASK);
                astart = finish;
                arem = rem[active];
            } else {
                active = -1;
            }
        }
        k->actives[ni] = active;
        k->astarts[ni] = astart;
        k->arems[ni] = arem;
        k->heap_len[ni] = hlen;
        k->num_events = num_events;
        if (num_events > a->max_events) {
            k->status = ST_MAX_EVENTS;
            return;
        }
        k->node_next[ni] = active >= 0 ? astart + arem / speed : INFINITY;
        return;
    }
    if (active == DOWN) {
        absorb_down(k, ni, limit);
        return;
    }

    for (;;) {
        double t_next = pi < npend ? pend[pi].t : INFINITY;
        if (active >= 0) {
            double finish = astart + arem / speed;
            if (finish <= t_next && finish <= limit) {
                /* -- completion (fused settle + hop advance) ---------- */
                hpop(heap, &hlen);
                complete_job(k, ni, active, astart, arem, finish, is_leaf,
                             agg);
                num_events += 1;
                /* Inlined rearm *without* drain: a pre-finished new top
                 * completes via its own (immediate) completion. */
                if (hlen) {
                    active = (long)(heap[0] & IDX_MASK);
                    astart = finish;
                    arem = rem[active];
                } else {
                    active = -1;
                }
                continue;
            }
        }
        if (t_next > limit || pi >= npend)
            break;
        /* -- admission ------------------------------------------------ */
        double t = pend[pi].t;
        int64_t key = pend[pi].key;
        long i = (long)(key & IDX_MASK);
        pi += 1;
        if (active < 0) {
            if (hlen == 0) {
                /* Idle, fully-drained node: the newcomer starts at
                 * once — push-drain-rearm degenerates to an append. */
                heap[0] = key;
                hlen = 1;
                if (agg)
                    k->qv[ni] += rem[i];
                active = i;
                astart = t;
                arem = rem[i];
                continue;
            }
        } else if (heap[0] < key) {
            /* The incumbent outranks the newcomer: plain push, the run
             * continues unbroken — the non-preempting enqueue. */
            if (!(heap = heap_room(k, ni, hlen)))
                break;
            hpush(heap, &hlen, key);
            if (agg)
                k->qv[ni] += rem[i];
            continue;
        } else {
            /* Settle the preempted run. */
            double elapsed = t - astart;
            if (elapsed > 0.0) {
                double new_rem = arem - speed * elapsed;
                if (new_rem < 0.0)
                    new_rem = 0.0;
                if (agg) {
                    double delta = arem - new_rem;
                    if (delta != 0.0) {
                        k->tv[ni] -= delta;
                        k->qv[ni] -= delta;
                    }
                }
                rem[active] = new_rem;
                if (is_leaf) {
                    double pl = k->p_leaf[active];
                    a->out_deficit[active] +=
                        (pl - arem) / pl * (astart - k->prev_end[active]) +
                        (2.0 * pl - arem - new_rem) / (2.0 * pl) *
                            (t - astart);
                    k->prev_end[active] = t;
                }
            } else {
                rem[active] = arem;
            }
            active = -1;
        }
        /* Drain finished jobs stranded at the heap top. */
        while (hlen) {
            long ti = (long)(heap[0] & IDX_MASK);
            if (rem[ti] > ftol[ti])
                break;
            hpop(heap, &hlen);
            drain_job(k, ni, ti, t, is_leaf, agg, 1);
        }
        /* Push the newcomer and rearm the (possibly new) top. */
        if (!(heap = heap_room(k, ni, hlen)))
            break;
        hpush(heap, &hlen, key);
        if (agg)
            k->qv[ni] += rem[i];
        active = (long)(heap[0] & IDX_MASK);
        astart = t;
        arem = rem[active];
    }

    k->pis[ni] = pi;
    k->actives[ni] = active;
    k->astarts[ni] = astart;
    k->arems[ni] = arem;
    k->heap_len[ni] = hlen;
    k->num_events = num_events;
    if (num_events > a->max_events) {
        k->status = ST_MAX_EVENTS;
        return;
    }
    /* Recompute the node's next-event time: both candidates are
     * strictly past `limit` now (the loop consumed everything due). */
    double nn;
    if (active >= 0) {
        nn = astart + arem / speed;
        if (pi < npend && pend[pi].t < nn)
            nn = pend[pi].t;
    } else if (pi < npend) {
        nn = pend[pi].t;
    } else {
        nn = INFINITY;
    }
    k->node_next[ni] = nn;
}

static inline void sync_chain(K *k, long ni, double now) {
    const int32_t *chain = k->a->chain_concat + k->a->chain_off[ni];
    long len = k->a->chain_off[ni + 1] - k->a->chain_off[ni];
    for (long q = 0; q < len; q++) {
        long a = chain[q];
        if (k->node_next[a] <= now)
            advance_node(k, a, now);
    }
}

/* ---- settle, drain, rearm at one instant ----------------------------- */

/* Fold node ni's active run into its remaining work at instant t (the
 * engine's _settle); the node is left without an active job. */
static void settle(K *k, long ni, double t) {
    long active = k->actives[ni];
    if (active < 0)
        return;
    const KernelArgs *a = k->a;
    double astart = k->astarts[ni];
    double arem = k->arems[ni];
    double elapsed = t - astart;
    if (elapsed > 0.0) {
        double new_rem = arem - a->speed[ni] * elapsed;
        if (new_rem < 0.0)
            new_rem = 0.0;
        if (a->use_agg) {
            double delta = arem - new_rem;
            if (delta != 0.0) {
                k->tv[ni] -= delta;
                k->qv[ni] -= delta;
            }
        }
        k->rem[active] = new_rem;
        if (a->is_leaf[ni]) {
            double pl = k->p_leaf[active];
            a->out_deficit[active] +=
                (pl - arem) / pl * (astart - k->prev_end[active]) +
                (2.0 * pl - arem - new_rem) / (2.0 * pl) * (t - astart);
            k->prev_end[active] = t;
        }
    } else {
        k->rem[active] = arem;
    }
    k->actives[ni] = IDLE;
}

/* Complete the finished jobs stranded at node ni's heap top at instant
 * t (no fused admission: emissions append to the pending lists). */
static void drain_top(K *k, long ni, double t) {
    const KernelArgs *a = k->a;
    int64_t *heap = k->heap[ni];
    long hlen = k->heap_len[ni];
    int is_leaf = a->is_leaf[ni];
    const double *ftol = is_leaf ? k->ftol_leaf : a->ftol_size;
    while (hlen) {
        long ti = (long)(heap[0] & IDX_MASK);
        if (k->rem[ti] > ftol[ti])
            break;
        hpop(heap, &hlen);
        k->heap_len[ni] = hlen;
        drain_job(k, ni, ti, t, is_leaf, (int)a->use_agg, 0);
    }
}

/* Start node ni's heap top at instant t (the engine's _rearm) and
 * recompute the node's next-event time. */
static void rearm(K *k, long ni, double t) {
    double nn = INFINITY;
    if (k->heap_len[ni]) {
        long active = (long)(k->heap[ni][0] & IDX_MASK);
        k->actives[ni] = active;
        k->astarts[ni] = t;
        double arem = k->rem[active];
        k->arems[ni] = arem;
        nn = t + arem / k->a->speed[ni];
    }
    long pi = k->pis[ni];
    if (pi < k->pend_len[ni] && k->pend[ni][pi].t < nn)
        nn = k->pend[ni][pi].t;
    k->node_next[ni] = nn;
}

/* ---- direct admission ------------------------------------------------ */

/* Admit job i at node ni at instant t, settling and preempting the
 * running job when the newcomer outranks it. */
static void admit_now(K *k, long ni, double t, long i) {
    if (k->status)
        return;
    const KernelArgs *a = k->a;
    int64_t key = a->enc[ni] ? pack(a->rank[i], i) : pack(k->lrank[i], i);
    long active = k->actives[ni];
    /* Push only: a down node, or an incumbent that outranks the
     * newcomer (its run continues unbroken, so the node's next event
     * is unchanged). */
    int push_only = active == DOWN || (active >= 0 && k->heap[ni][0] < key);
    if (!push_only) {
        settle(k, ni, t);
        drain_top(k, ni, t);
    }
    int64_t *heap = heap_room(k, ni, k->heap_len[ni]);
    if (!heap)
        return;
    hpush(heap, &k->heap_len[ni], key);
    if (a->use_agg)
        k->qv[ni] += k->rem[i];
    if (!push_only)
        rearm(k, ni, t);
}

/* ---- arrivals (after the policy call) ------------------------------- */

static void handle_arrival(K *k, long i, long path_id, double now) {
    const KernelArgs *a = k->a;
    long off = a->path_off[path_id];
    long plen = a->path_len[path_id];
    k->jpath_off[i] = (int32_t)off;
    k->jpath_len[i] = (int32_t)plen;

    /* Release mutation point for the congestion aggregates. */
    if (a->use_agg) {
        double size = a->size[i];
        for (long q = 0; q < plen; q++) {
            long ni = a->path_concat[off + q];
            k->tc[ni] += 1;
            k->tv[ni] += size;
        }
        double pl = k->p_leaf[i];
        if (pl != size)
            k->tv[a->path_concat[off + plen - 1]] += pl - size;
    }

    long first = a->path_concat[off];
    if (a->is_leaf[first]) {
        k->rem[i] = k->p_leaf[i];
        k->prev_end[i] = now;
    } else {
        k->rem[i] = a->size[i];
    }
    sync_chain(k, first, now);
    if (k->status)
        return;
    /* Inlined fast admission paths (the two cases that dominate the
     * arrival phase); anything involving settles or finished-top
     * drains goes through the full admit_now. */
    if (a->enc[first]) {
        long active = k->actives[first];
        int64_t *heap = k->heap[first];
        if (active >= 0) {
            int64_t key = pack(a->rank[i], i);
            if (heap[0] < key) {
                /* Incumbent outranks the newcomer: plain push, run
                 * continues unbroken, node_next unchanged. */
                if (!(heap = heap_room(k, first, k->heap_len[first])))
                    return;
                hpush(heap, &k->heap_len[first], key);
                if (a->use_agg)
                    k->qv[first] += k->rem[i];
                return;
            }
        } else if (active == IDLE && k->heap_len[first] == 0) {
            /* Idle, fully-drained node: the newcomer starts at once. */
            heap[0] = pack(a->rank[i], i);
            k->heap_len[first] = 1;
            k->actives[first] = i;
            k->astarts[first] = now;
            double r = k->rem[i];
            k->arems[first] = r;
            if (a->use_agg)
                k->qv[first] += r;
            double nn = now + r / a->speed[first];
            long pi = k->pis[first];
            if (pi < k->pend_len[first] && k->pend[first][pi].t < nn)
                nn = k->pend[first][pi].t;
            k->node_next[first] = nn;
            return;
        }
    }
    admit_now(k, first, now, i);
}

/* ---- policy: greedy-identical (Section 3.4) ------------------------- */

static inline double live_processed(K *k, long ni, double now) {
    if (k->actives[ni] < 0)
        return 0.0;
    double elapsed = now - k->astarts[ni];
    if (elapsed <= 0.0)
        return 0.0;
    double done = k->a->speed[ni] * elapsed;
    double arem = k->arems[ni];
    return done < arem ? done : arem;
}

/* ---- outages: candidate filtering ------------------------------------ */

/* path_is_blocked: whether the leaf's processing path from the root
 * (its chain) crosses a down node. */
static inline int leaf_blocked(const K *k, long lni) {
    const int32_t *chain = k->a->chain_concat + k->a->chain_off[lni];
    long len = k->a->chain_off[lni + 1] - k->a->chain_off[lni];
    for (long q = 0; q < len; q++)
        if (k->actives[chain[q]] == DOWN)
            return 1;
    return 0;
}

/* The engine's _filter_branch_records: rebuild each branch's argmin
 * record over its unblocked leaves (f_kept[e] == 0 drops the branch).
 * Returns 0 when the unfiltered records stand: no leaf is blocked, or
 * every leaf is (dispatch must still pick one). */
static int filter_entries(K *k) {
    const KernelArgs *a = k->a;
    int blocked = 0, any_kept = 0;
    for (long e = 0; e < a->n_entries; e++) {
        long kept = 0;
        for (long q = a->el_off[e]; q < a->el_off[e + 1]; q++) {
            if (leaf_blocked(k, a->el_leaf_ni[q])) {
                blocked = 1;
                continue;
            }
            double steps = a->el_steps[q];
            int64_t leaf = a->el_leaf_id[q];
            if (!kept || steps < k->f_steps[e] ||
                (steps == k->f_steps[e] && leaf < k->f_tie_leaf[e])) {
                k->f_steps[e] = steps;
                k->f_tie_leaf[e] = leaf;
                k->f_tie_path[e] = a->el_path[q];
            }
            if (!kept || leaf < k->f_min_leaf[e]) {
                k->f_min_leaf[e] = leaf;
                k->f_min_path[e] = a->el_path[q];
            }
            kept += 1;
        }
        k->f_kept[e] = kept;
        any_kept |= kept > 0;
    }
    return blocked && any_kept;
}

static long assign_greedy(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    double p_j = a->size[i];
    double weight_p = a->weight * p_j;
    int64_t r_j = a->rank[i]; /* == sjf rank: kind 1 requires sjf */
    /* F(j, ·) over the root-adjacent entries, exactly like the
     * engine's f_top_value: sync each entry, then sum its heap in
     * array order (entries are root-adjacent, hence never leaves). */
    for (long e = 0; e < a->n_entries; e++) {
        long ni = a->entry_ni[e];
        if (k->node_next[ni] <= now)
            advance_node(k, ni, now);
        double total = p_j;
        long hl = k->heap_len[ni];
        if (hl) {
            int64_t *h = k->heap[ni];
            long active = k->actives[ni];
            double live = 0.0;
            int64_t arank = -1;
            if (active >= 0) {
                live = k->arems[ni] - a->speed[ni] * (now - k->astarts[ni]);
                if (live < 0.0)
                    live = 0.0;
                arank = a->rank[active];
            }
            for (long q = 0; q < hl; q++) {
                int64_t er = h[q] >> 32;
                if (er < r_j)
                    total += (er == arank) ? live
                                           : k->rem[h[q] & IDX_MASK];
                else if (a->size[h[q] & IDX_MASK] > p_j)
                    total += p_j;
            }
        }
        k->bases[e] = total;
    }
    if (k->status)
        return -1;
    /* Argmin with the policy's exact tie-breaks, over the branch
     * records restricted to unblocked leaves while an outage blocks
     * some (but not every) leaf. */
    const double *min_steps = a->entry_min_steps;
    const int64_t *tie_leaf = a->entry_tie_leaf_id;
    const int32_t *tie_path = a->entry_tie_path;
    const int64_t *min_leaf = a->entry_min_leaf_id;
    const int32_t *min_path = a->entry_min_leaf_path;
    const long *kept = NULL;
    if (k->n_down && filter_entries(k)) {
        min_steps = k->f_steps;
        tie_leaf = k->f_tie_leaf;
        tie_path = k->f_tie_path;
        min_leaf = k->f_min_leaf;
        min_path = k->f_min_path;
        kept = k->f_kept;
    }
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    if (weight_p > 0.0) {
        for (long e = 0; e < a->n_entries; e++) {
            if (kept && !kept[e])
                continue;
            double score = k->bases[e] + weight_p * min_steps[e];
            int64_t leaf = tie_leaf[e];
            if (score < best_score ||
                (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
                best_score = score;
                best_leaf = leaf;
                best_pos = e;
            }
        }
        return best_pos >= 0 ? tie_path[best_pos] : -1;
    }
    /* weight_p == 0.0: all leaves of a branch tie at `base` (the
     * pathological weight_p < 0 scan is gated out on the Python side —
     * job sizes are validated > 0, so it cannot occur here). */
    for (long e = 0; e < a->n_entries; e++) {
        if (kept && !kept[e])
            continue;
        double score = k->bases[e];
        int64_t leaf = min_leaf[e];
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = e;
        }
    }
    return best_pos >= 0 ? min_path[best_pos] : -1;
}

/* ---- policy: least-loaded (congestion-aggregate reads) -------------- */

static long assign_least_loaded(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    /* top_load = {top: queue_volume_at(top)} in root_children order. */
    for (long tpos = 0; tpos < a->n_tops; tpos++) {
        long ni = a->tops_ni[tpos];
        if (k->node_next[ni] <= now) /* chain of a root child is itself */
            advance_node(k, ni, now);
        double v;
        if (k->heap_len[ni] == 0) {
            v = 0.0;
        } else {
            v = k->qv[ni] - live_processed(k, ni, now);
            if (!(v > 0.0))
                v = 0.0;
        }
        k->top_load[tpos] = v;
    }
    /* Outages drop the blocked candidates, unless they block all. */
    int filter = 0;
    if (k->n_down) {
        long kept = 0;
        for (long c = 0; c < a->n_cands; c++)
            kept += !leaf_blocked(k, a->cand_leaf_ni[c]);
        filter = kept > 0 && kept < a->n_cands;
    }
    double p = a->size[i];
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long c = 0; c < a->n_cands; c++) {
        long lni = a->cand_leaf_ni[c];
        if (filter && leaf_blocked(k, lni))
            continue;
        sync_chain(k, lni, now); /* volume_through syncs the leaf chain */
        double vol;
        if (k->tc[lni] == 0) {
            vol = 0.0;
        } else {
            vol = k->tv[lni] - live_processed(k, lni, now);
            if (!(vol > 0.0))
                vol = 0.0;
        }
        double own = a->cand_d[c] * p;
        double score = k->top_load[a->cand_top_pos[c]] + vol + own;
        int64_t leaf = a->cand_leaf_id[c];
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = c;
        }
    }
    if (k->status)
        return -1;
    return best_pos >= 0 ? a->cand_path[best_pos] : -1;
}

/* ---- policy: greedy-unrelated (Section 3.4, Theorem 2) -------------- */

/* The SJF order of fvalues.outranks: (p_i, r_i, id_i) < (p_j, r_j, id_j). */
static inline int outranks(const KernelArgs *a, double p_i, long i, double p_j,
                           long j) {
    if (p_i != p_j)
        return p_i < p_j;
    if (a->rel[i] != a->rel[j])
        return a->rel[i] < a->rel[j];
    return a->job_id[i] < a->job_id[j];
}

/* f_top_value at root-adjacent node ni for arriving job j: the heap in
 * array order, leaf sizes at a leaf, sizes elsewhere. */
static double f_top(K *k, long ni, long j, double now) {
    const KernelArgs *a = k->a;
    double p_j = a->size[j];
    double total = p_j;
    const int64_t *h = k->heap[ni];
    long hl = k->heap_len[ni];
    const double *p_col = a->is_leaf[ni] ? k->p_leaf : a->size;
    long active = k->actives[ni];
    for (long q = 0; q < hl; q++) {
        long o = (long)(h[q] & IDX_MASK);
        double p_i = p_col[o];
        if (outranks(a, p_i, o, p_j, j)) {
            if (o == active) {
                double r = k->arems[ni] - a->speed[ni] * (now - k->astarts[ni]);
                total += r > 0.0 ? r : 0.0;
            } else {
                total += k->rem[o];
            }
        } else if (p_i > p_j) {
            total += p_j;
        }
    }
    return total;
}

/* f_prime_value at leaf lni for job j (p_jv = p_{j,leaf}): the leaf's
 * alive jobs in ascending id; jobs still upstream count in full.
 * Finished and cancelled rows leave the list here. */
static double f_prime(K *k, long lni, long j, double p_jv, double now) {
    const KernelArgs *a = k->a;
    sync_chain(k, lni, now);
    double total = p_jv;
    int32_t *al = k->alive[lni];
    long len = k->alive_len[lni], w = 0;
    long active = k->actives[lni];
    for (long q = 0; q < len; q++) {
        long o = al[q];
        long plen = k->jpath_len[o];
        long h = k->hop[o];
        if (h >= plen)
            continue;
        al[w++] = (int32_t)o;
        double p_iv = k->p_leaf[o];
        double r;
        if (h == plen - 1) { /* physically at the leaf */
            if (o == active) {
                r = k->arems[lni] - a->speed[lni] * (now - k->astarts[lni]);
                if (r < 0.0)
                    r = 0.0;
            } else {
                r = k->rem[o];
            }
        } else {
            r = p_iv;
        }
        if (outranks(a, p_iv, o, p_jv, j))
            total += r;
        else if (p_iv > p_jv)
            total += p_jv * r / p_iv;
    }
    k->alive_len[lni] = w;
    return total;
}

/* One GreedyUnrelated._scan; returns the winning el column or -1. */
static long scan_unrelated(K *k, long i, double now, int skip_blocked) {
    const KernelArgs *a = k->a;
    const double *p_row = a->leaf_p + (size_t)i * k->n_leaves;
    double weight_p = a->weight * a->size[i];
    long best = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long e = 0; e < a->n_entries; e++) {
        double base = k->bases[e];
        for (long q = a->el_off[e]; q < a->el_off[e + 1]; q++) {
            double p = p_row[q];
            if (!isfinite(p))
                continue;
            long lni = a->el_leaf_ni[q];
            if (skip_blocked && leaf_blocked(k, lni))
                continue;
            double score =
                base + f_prime(k, lni, i, p, now) + weight_p * a->el_steps[q];
            int64_t leaf = a->el_leaf_id[q];
            if (score < best_score ||
                (score == best_score && (best < 0 || leaf < best_leaf))) {
                best_score = score;
                best_leaf = leaf;
                best = q;
            }
        }
    }
    return best;
}

/* Insert job i into leaf lni's alive list, keeping ascending job id. */
static int alive_insert(K *k, long lni, long i) {
    long len = k->alive_len[lni];
    if (len == k->alive_cap[lni] &&
        !grow(k, (void **)&k->alive[lni], &k->alive_cap[lni], sizeof(int32_t)))
        return 0;
    int32_t *al = k->alive[lni];
    const int64_t *ids = k->a->job_id;
    long pos = len;
    while (pos > 0 && ids[al[pos - 1]] > ids[i]) {
        al[pos] = al[pos - 1];
        pos -= 1;
    }
    al[pos] = (int32_t)i;
    k->alive_len[lni] = len + 1;
    return 1;
}

/* Index of value p in the sorted distinct leaf sizes: the leaf-heap
 * rank, so (rank << 32) | row orders like (p_leaf, release, id). */
static int64_t uniq_rank(const KernelArgs *a, double p) {
    long lo = 0, hi = (long)a->n_uniq;
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2;
        if (a->leaf_p_uniq[mid] < p)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static long assign_unrelated(K *k, long i, double now) {
    const KernelArgs *a = k->a;
    for (long e = 0; e < a->n_entries; e++) {
        long ni = a->entry_ni[e];
        if (k->node_next[ni] <= now)
            advance_node(k, ni, now);
        k->bases[e] = f_top(k, ni, i, now);
    }
    long q = scan_unrelated(k, i, now, k->n_down > 0);
    if (q < 0 && k->n_down)
        /* Every feasible leaf sits behind an outage: rescore ignoring
         * the down set (the job stalls en route until the repair). */
        q = scan_unrelated(k, i, now, 0);
    if (q < 0 || k->status)
        return -1;
    double p = a->leaf_p[(size_t)i * k->n_leaves + q];
    k->p_leaf[i] = p;
    double ft = a->ftol_rtol * p;
    k->ftol_leaf[i] = ft > a->ftol_atol ? ft : a->ftol_atol;
    k->lrank3[i] = uniq_rank(a, p);
    if (!alive_insert(k, a->el_leaf_ni[q], i))
        return -1;
    return a->el_path[q];
}

/* ---- dynamic events --------------------------------------------------- */

static void node_down(K *k, long ni, double t) {
    sync_chain(k, ni, t);
    if (k->status)
        return;
    settle(k, ni, t);
    drain_top(k, ni, t);
    k->actives[ni] = DOWN;
    long pi = k->pis[ni];
    k->node_next[ni] = pi < k->pend_len[ni] ? k->pend[ni][pi].t : INFINITY;
    k->n_down += 1;
}

static void node_up(K *k, long ni, double t) {
    sync_chain(k, ni, t); /* absorbs the pushes due by t */
    if (k->status)
        return;
    k->actives[ni] = IDLE;
    k->n_down -= 1;
    drain_top(k, ni, t);
    rearm(k, ni, t);
}

/* Withdraw released job i at instant t (the engine's _handle_cancel). */
static void cancel_job(K *k, long i, double t) {
    const KernelArgs *a = k->a;
    long off = k->jpath_off[i];
    long plen = k->jpath_len[i];
    sync_chain(k, a->path_concat[off + plen - 1], t); /* its whole path */
    if (k->status)
        return;
    long h = k->hop[i];
    if (h >= plen)
        return; /* already finished */
    long cur = a->path_concat[off + h];
    if (k->actives[cur] == i) {
        /* In service: settle, pop it (the heap top), restart the node. */
        settle(k, cur, t);
        hpop(k->heap[cur], &k->heap_len[cur]);
        drain_top(k, cur, t);
        rearm(k, cur, t);
    } else {
        /* Queued (possibly on a down node): heap[pos] = heap[-1];
         * pop; heapify.  The top, and so the node's next event, stays. */
        int64_t *heap = k->heap[cur];
        long len = k->heap_len[cur];
        long pos = 0;
        while (pos < len && (long)(heap[pos] & IDX_MASK) != i)
            pos += 1;
        if (pos < len) {
            heap[pos] = heap[len - 1];
            k->heap_len[cur] = len - 1;
            heapify(heap, len - 1);
        }
    }
    double r = k->rem[i];
    if (a->use_agg) {
        k->qv[cur] -= r;
        for (long q = h; q < plen; q++) {
            long v = a->path_concat[off + q];
            k->tc[v] -= 1;
            k->tv[v] -= q == h ? r : (a->is_leaf[v] ? k->p_leaf[i] : a->size[i]);
        }
    }
    if (a->is_leaf[cur]) {
        double pl = k->p_leaf[i];
        a->out_deficit[i] += (pl - r) / pl * (t - k->prev_end[i]);
    }
    k->hop[i] = plen;
    k->rem[i] = 0.0;
    a->out_cancel[i] = t;
}

/* Apply dynamic event d; rows below `released` have arrived. */
static void apply_dyn(K *k, long d, long released) {
    const KernelArgs *a = k->a;
    k->num_events += 1;
    if (k->num_events > a->max_events) {
        k->status = ST_MAX_EVENTS;
        return;
    }
    double t = a->dyn_time[d];
    long arg = a->dyn_arg[d];
    switch (a->dyn_kind[d]) {
    case DYN_DOWN:
        node_down(k, arg, t);
        break;
    case DYN_UP:
        node_up(k, arg, t);
        break;
    default: /* cancels of unknown or unreleased jobs are no-ops */
        if (arg >= 0 && arg < released)
            cancel_job(k, arg, t);
    }
}

/* ---- entry point ----------------------------------------------------- */

int repro_run(const KernelArgs *a) {
    if (!a || a->n_jobs < 0 || a->n_nodes <= 0 || a->max_path <= 0)
        return ST_BAD_ARGS;
    long n = (long)a->n_jobs;
    long m = (long)a->n_nodes;
    if (n == 0) {
        *a->out_num_events = 0;
        return ST_OK;
    }

    K k;
    memset(&k, 0, sizeof(k));
    k.a = a;
    k.mp = (long)a->max_path;
    long kind = (long)a->policy_kind;
    long ne = a->n_entries > 0 ? (long)a->n_entries : 1;
    long nt = a->n_tops > 0 ? (long)a->n_tops : 1;
    long n3 = kind == 3 ? n : 1;
    k.n_leaves = a->n_entries > 0 && a->el_off ? a->el_off[a->n_entries] : 0;

    size_t bytes = 0;
    bytes += (size_t)m * sizeof(void *) * 3;  /* heap pend alive */
    bytes += (size_t)m * sizeof(long) * 9;    /* heap_len heap_cap pend_len
                                                 pend_cap pis actives tc
                                                 alive_len alive_cap */
    bytes += (size_t)m * sizeof(double) * 5;  /* astarts arems node_next tv qv */
    bytes += (size_t)n * sizeof(double) * 4;  /* rem p_leaf ftol_leaf prev_end */
    bytes += (size_t)n * sizeof(long);        /* hop */
    bytes += (size_t)n3 * sizeof(int64_t);    /* lrank3 */
    bytes += (size_t)ne * (sizeof(double) * 2 + sizeof(long) +
                           sizeof(int64_t) * 2); /* bases f_steps f_kept
                                                    f_tie_leaf f_min_leaf */
    bytes += (size_t)nt * sizeof(double);     /* top_load */
    bytes += (size_t)n * sizeof(int32_t) * 2; /* jpath_off jpath_len */
    bytes += (size_t)ne * sizeof(int32_t) * 2; /* f_tie_path f_min_path */
    char *blob = (char *)calloc(1, bytes);
    if (!blob)
        return ST_NOMEM;
    char *p = blob;
#define TAKE(var, type, count)                                               \
    k.var = (type *)p;                                                       \
    p += (size_t)(count) * sizeof(type)
    TAKE(heap, int64_t *, m);
    TAKE(pend, Pend *, m);
    TAKE(alive, int32_t *, m);
    TAKE(heap_len, long, m);
    TAKE(heap_cap, long, m);
    TAKE(pend_len, long, m);
    TAKE(pend_cap, long, m);
    TAKE(pis, long, m);
    TAKE(actives, long, m);
    TAKE(tc, long, m);
    TAKE(alive_len, long, m);
    TAKE(alive_cap, long, m);
    TAKE(astarts, double, m);
    TAKE(arems, double, m);
    TAKE(node_next, double, m);
    TAKE(tv, double, m);
    TAKE(qv, double, m);
    TAKE(rem, double, n);
    TAKE(p_leaf, double, n);
    TAKE(ftol_leaf, double, n);
    TAKE(prev_end, double, n);
    TAKE(hop, long, n);
    TAKE(lrank3, int64_t, n3);
    TAKE(bases, double, ne);
    TAKE(f_steps, double, ne);
    TAKE(f_kept, long, ne);
    TAKE(f_tie_leaf, int64_t, ne);
    TAKE(f_min_leaf, int64_t, ne);
    TAKE(top_load, double, nt);
    TAKE(jpath_off, int32_t, n);
    TAKE(jpath_len, int32_t, n);
    TAKE(f_tie_path, int32_t, ne);
    TAKE(f_min_path, int32_t, ne);
#undef TAKE
    k.lrank = kind == 3 ? k.lrank3 : a->leaf_rank;

    for (long ni = 0; ni < m; ni++) {
        k.heap[ni] = (int64_t *)malloc(INIT_CAP * sizeof(int64_t));
        k.pend[ni] = (Pend *)malloc(INIT_CAP * sizeof(Pend));
        if (!k.heap[ni] || !k.pend[ni])
            k.status = ST_NOMEM;
        if (kind == 3 && a->is_leaf[ni]) {
            k.alive[ni] = (int32_t *)malloc(INIT_CAP * sizeof(int32_t));
            if (!k.alive[ni])
                k.status = ST_NOMEM;
            k.alive_cap[ni] = INIT_CAP;
        }
        k.heap_cap[ni] = INIT_CAP;
        k.pend_cap[ni] = INIT_CAP;
        k.actives[ni] = IDLE;
        k.node_next[ni] = INFINITY;
    }
    for (long i = 0; i < n; i++) {
        a->out_deficit[i] = 0.0;
        /* Availability timelines pre-seeded with the release instant,
         * exactly like the engine's job records. */
        a->out_avail[(size_t)i * k.mp] = a->rel[i];
        a->out_avail_cnt[i] = 1;
        a->out_comp_cnt[i] = 0;
        if (kind == 0) {
            k.p_leaf[i] = a->p_leaf_in[i];
            k.ftol_leaf[i] = a->ftol_leaf_in[i];
        }
    }

    long n_dyn = (long)a->n_dyn;
    long d = 0;
    for (long i = 0; i < n && !k.status; i++) {
        double now = a->rel[i];
        /* Dynamic events due by this release go first (the engine's
         * tie rule: completions, then dynamic events, then arrivals). */
        while (d < n_dyn && a->dyn_time[d] <= now && !k.status)
            apply_dyn(&k, d++, i);
        if (k.status)
            break;
        long path_id;
        if (kind == 0) {
            path_id = a->job_path_id[i];
        } else if (kind == 3) {
            path_id = assign_unrelated(&k, i, now);
        } else {
            /* Identical setting: p_{j,leaf} == p_j whichever leaf the
             * policy picks, so the leaf columns are fixed up front. */
            k.p_leaf[i] = a->size[i];
            k.ftol_leaf[i] = a->ftol_size[i];
            path_id = (kind == 1) ? assign_greedy(&k, i, now)
                                  : assign_least_loaded(&k, i, now);
        }
        if (path_id < 0) {
            /* A nested advance tripped max_events, a buffer could not
             * grow, or (vacuous for validated instances) no leaf
             * scored. */
            if (!k.status)
                k.status = ST_BAD_ARGS;
            break;
        }
        a->out_path_id[i] = (int32_t)path_id;
        handle_arrival(&k, i, path_id, now);
    }
    /* Arrivals count as events. */
    k.num_events += n;
    while (d < n_dyn && !k.status)
        apply_dyn(&k, d++, n);

    /* Final drain: preorder guarantees every node's parent empties
     * first, and every outage has ended, so one pass completes all
     * in-flight work. */
    if (!k.status) {
        for (long ni = 0; ni < m; ni++) {
            advance_node(&k, ni, INFINITY);
            if (k.status)
                break;
        }
    }

    *a->out_num_events = (int64_t)k.num_events;
    for (long ni = 0; ni < m; ni++) {
        free(k.heap[ni]);
        free(k.pend[ni]);
        free(k.alive[ni]);
    }
    free(blob);
    return k.status;
}
