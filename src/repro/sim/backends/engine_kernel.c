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
 *      Ranks are unique per node, so packed comparisons order exactly
 *      like the engine's `(priority key, job id)` tuples, and the
 *      payload decodes in O(1).
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

#define REPRO_KERNEL_ABI 2

#define IDX_MASK 0xffffffffLL

/* Initial per-node capacity of the heap and pending buffers. */
#define INIT_CAP 16

/* Status codes returned by repro_run. */
#define ST_OK 0
#define ST_MAX_EVENTS 1
#define ST_NOMEM 2
#define ST_BAD_ARGS 3

typedef struct {
    /* sizes and limits */
    int64_t n_jobs;
    int64_t n_nodes;
    int64_t max_path;
    int64_t max_events;
    int64_t policy_kind; /* 0 fixed, 1 greedy-identical, 2 least-loaded */
    int64_t use_agg;     /* maintain congestion aggregates (kind 2) */
    int64_t n_entries;
    int64_t n_tops;
    int64_t n_cands;
    int64_t n_paths;
    double weight; /* greedy 6/eps^2 */
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
    const int64_t *rank;      /* [n_jobs] node-key rank (sjf or fifo) */
    const int64_t *leaf_rank; /* [n_jobs] leaf-key rank (unrelated sjf) */
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
    /* policy kind 2: least-loaded candidate layout */
    const int32_t *tops_ni;      /* [n_tops] root children, in order */
    const int64_t *cand_leaf_id; /* [n_cands] */
    const int32_t *cand_leaf_ni; /* [n_cands] */
    const int32_t *cand_top_pos; /* [n_cands] index into tops */
    const double *cand_d;        /* [n_cands] d_v as a double */
    const int32_t *cand_path;    /* [n_cands] path id */
    /* outputs (allocated by Python) */
    int32_t *out_path_id;    /* [n_jobs] chosen path per job */
    double *out_avail;       /* [n_jobs * max_path] */
    int32_t *out_avail_cnt;  /* [n_jobs] */
    double *out_comp;        /* [n_jobs * max_path] */
    int32_t *out_comp_cnt;   /* [n_jobs] */
    double *out_deficit;     /* [n_jobs] */
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
    long m;  /* n_nodes */
    long mp; /* max_path */
    double now;
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
    /* policy scratch */
    double *bases;    /* n_entries */
    double *top_load; /* n_tops */
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

static inline void hpop(int64_t *h, long *len) {
    /* heappop with the return value discarded: pop the last element,
     * move it to the root, _siftup(heap, 0). */
    int64_t newitem = h[--(*len)];
    long endpos = *len;
    if (endpos == 0)
        return;
    long pos = 0;
    long childpos = 1;
    while (childpos < endpos) {
        long rightpos = childpos + 1;
        if (rightpos < endpos && !(h[childpos] < h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    /* _siftdown(heap, 0, pos) */
    while (pos > 0) {
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
        if (allow_fused && k->actives[nxt] < 0 && k->heap_len[nxt] == 0 &&
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
    int64_t rank = a->enc[nxt] ? a->rank[ji] : a->leaf_rank[ji];
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

/* ---- direct admission ------------------------------------------------ */

/* Admit job i at node ni at instant t, settling and preempting the
 * running job when the newcomer outranks it. */
static void admit_now(K *k, long ni, double t, long i) {
    if (k->status)
        return;
    const KernelArgs *a = k->a;
    int64_t *heap = k->heap[ni];
    long hlen = k->heap_len[ni];
    int enc = a->enc[ni];
    double *rem = k->rem;
    int agg = (int)a->use_agg;
    int64_t key = enc ? pack(a->rank[i], i) : pack(a->leaf_rank[i], i);
    long active = k->actives[ni];
    double speed = a->speed[ni];
    int is_leaf = a->is_leaf[ni];
    if (active >= 0) {
        double astart = k->astarts[ni];
        double arem = k->arems[ni];
        if (heap[0] < key) {
            /* Incumbent outranks the newcomer: run continues unbroken,
             * so the node's next event is unchanged. */
            if (!(heap = heap_room(k, ni, hlen)))
                return;
            hpush(heap, &hlen, key);
            k->heap_len[ni] = hlen;
            if (agg)
                k->qv[ni] += rem[i];
            return;
        }
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
                    (2.0 * pl - arem - new_rem) / (2.0 * pl) * (t - astart);
                k->prev_end[active] = t;
            }
        } else {
            rem[active] = arem;
        }
    }
    /* Drain finished jobs stranded at the heap top (no fused admission
     * here: emissions always append to the pending list). */
    if (hlen) {
        const double *ftol = is_leaf ? k->ftol_leaf : a->ftol_size;
        while (hlen) {
            long ti = (long)(heap[0] & IDX_MASK);
            if (rem[ti] > ftol[ti])
                break;
            hpop(heap, &hlen);
            drain_job(k, ni, ti, t, is_leaf, agg, 0);
        }
    }
    /* Push the newcomer and rearm the (possibly new) top. */
    if (!(heap = heap_room(k, ni, hlen)))
        return;
    hpush(heap, &hlen, key);
    k->heap_len[ni] = hlen;
    if (agg)
        k->qv[ni] += rem[i];
    active = (long)(heap[0] & IDX_MASK);
    k->actives[ni] = active;
    k->astarts[ni] = t;
    double arem = rem[active];
    k->arems[ni] = arem;
    double nn = t + arem / speed;
    long pi = k->pis[ni];
    if (pi < k->pend_len[ni] && k->pend[ni][pi].t < nn)
        nn = k->pend[ni][pi].t;
    k->node_next[ni] = nn;
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
        } else if (k->heap_len[first] == 0) {
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
    /* Argmin with the policy's exact tie-breaks. */
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    if (weight_p > 0.0) {
        for (long e = 0; e < a->n_entries; e++) {
            double score = k->bases[e] + weight_p * a->entry_min_steps[e];
            int64_t leaf = a->entry_tie_leaf_id[e];
            if (score < best_score ||
                (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
                best_score = score;
                best_leaf = leaf;
                best_pos = e;
            }
        }
        return best_pos >= 0 ? a->entry_tie_path[best_pos] : -1;
    }
    /* weight_p == 0.0: all leaves of a branch tie at `base` (the
     * pathological weight_p < 0 scan is gated out on the Python side —
     * job sizes are validated > 0, so it cannot occur here). */
    for (long e = 0; e < a->n_entries; e++) {
        double score = k->bases[e];
        int64_t leaf = a->entry_min_leaf_id[e];
        if (score < best_score ||
            (score == best_score && (best_pos < 0 || leaf < best_leaf))) {
            best_score = score;
            best_leaf = leaf;
            best_pos = e;
        }
    }
    return best_pos >= 0 ? a->entry_min_leaf_path[best_pos] : -1;
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
    double p = a->size[i];
    long best_pos = -1;
    int64_t best_leaf = 0;
    double best_score = INFINITY;
    for (long c = 0; c < a->n_cands; c++) {
        long lni = a->cand_leaf_ni[c];
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
    k.m = m;
    k.mp = (long)a->max_path;

    size_t bytes = 0;
    bytes += (size_t)m * sizeof(void *) * 2;  /* heap pend */
    bytes += (size_t)m * sizeof(long) * 7;    /* heap_len heap_cap pend_len
                                                 pend_cap pis actives tc */
    bytes += (size_t)m * sizeof(double) * 5;  /* astarts arems node_next tv qv */
    bytes += (size_t)n * sizeof(double) * 4;  /* rem p_leaf ftol_leaf prev_end */
    bytes += (size_t)n * sizeof(long);        /* hop */
    bytes += (size_t)n * sizeof(int32_t) * 2; /* jpath_off jpath_len */
    bytes += (size_t)(a->n_entries > 0 ? a->n_entries : 1) * sizeof(double);
    bytes += (size_t)(a->n_tops > 0 ? a->n_tops : 1) * sizeof(double);
    char *blob = (char *)calloc(1, bytes);
    if (!blob)
        return ST_NOMEM;
    char *p = blob;
#define TAKE(var, type, count)                                               \
    k.var = (type *)p;                                                       \
    p += (size_t)(count) * sizeof(type)
    TAKE(heap, int64_t *, m);
    TAKE(pend, Pend *, m);
    TAKE(heap_len, long, m);
    TAKE(heap_cap, long, m);
    TAKE(pend_len, long, m);
    TAKE(pend_cap, long, m);
    TAKE(pis, long, m);
    TAKE(actives, long, m);
    TAKE(tc, long, m);
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
    TAKE(jpath_off, int32_t, n);
    TAKE(jpath_len, int32_t, n);
    TAKE(bases, double, a->n_entries > 0 ? a->n_entries : 1);
    TAKE(top_load, double, a->n_tops > 0 ? a->n_tops : 1);
#undef TAKE

    for (long ni = 0; ni < m; ni++) {
        k.heap[ni] = (int64_t *)malloc(INIT_CAP * sizeof(int64_t));
        k.pend[ni] = (Pend *)malloc(INIT_CAP * sizeof(Pend));
        if (!k.heap[ni] || !k.pend[ni])
            k.status = ST_NOMEM;
        k.heap_cap[ni] = INIT_CAP;
        k.pend_cap[ni] = INIT_CAP;
        k.heap_len[ni] = 0;
        k.pend_len[ni] = 0;
        k.pis[ni] = 0;
        k.actives[ni] = -1;
        k.tc[ni] = 0;
        k.astarts[ni] = 0.0;
        k.arems[ni] = 0.0;
        k.node_next[ni] = INFINITY;
        k.tv[ni] = 0.0;
        k.qv[ni] = 0.0;
    }
    for (long i = 0; i < n; i++) {
        k.rem[i] = 0.0;
        k.prev_end[i] = 0.0;
        k.hop[i] = 0;
        k.jpath_off[i] = 0;
        k.jpath_len[i] = 0;
        a->out_deficit[i] = 0.0;
        /* Availability timelines pre-seeded with the release instant,
         * exactly like the engine's job records. */
        a->out_avail[(size_t)i * k.mp] = a->rel[i];
        a->out_avail_cnt[i] = 1;
        a->out_comp_cnt[i] = 0;
        if (a->policy_kind == 0) {
            k.p_leaf[i] = a->p_leaf_in[i];
            k.ftol_leaf[i] = a->ftol_leaf_in[i];
        }
    }

    long kind = (long)a->policy_kind;
    for (long i = 0; i < n && !k.status; i++) {
        double now = a->rel[i];
        k.now = now;
        long path_id;
        if (kind == 0) {
            path_id = a->job_path_id[i];
        } else {
            /* Identical setting: p_{j,leaf} == p_j whichever leaf the
             * policy picks, so the leaf columns are fixed up front. */
            k.p_leaf[i] = a->size[i];
            k.ftol_leaf[i] = a->ftol_size[i];
            path_id = (kind == 1) ? assign_greedy(&k, i, now)
                                  : assign_least_loaded(&k, i, now);
            if (path_id < 0) {
                /* A nested advance tripped max_events, or (vacuous for
                 * validated instances) every score was NaN. */
                if (!k.status)
                    k.status = ST_BAD_ARGS;
                break;
            }
        }
        a->out_path_id[i] = (int32_t)path_id;
        handle_arrival(&k, i, path_id, now);
        if (k.status)
            break;
    }
    /* Arrivals count as events. */
    k.num_events += n;

    /* Final drain: preorder guarantees every node's parent empties
     * first, so one pass completes all in-flight work. */
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
    }
    free(blob);
    return k.status;
}
