// The paper's two epsilon-neighborhood GPU kernels, the result-size
// estimation kernel for the batching scheme, and the per-point traversal
// kernels every table and clustering path runs.
//
//  * GPUCalcGlobal (Alg. 2): one thread per point; reads candidates from
//    up to 9 adjacent grid cells straight out of global memory.
//  * GPUCalcShared (Alg. 3): one thread block per non-empty grid cell;
//    pages origin- and comparison-cell points into shared memory in
//    block-sized tiles with barriers between phases. When a cell holds
//    more points than the block size the extra tiling loop the paper
//    mentions kicks in.
//  * Count kernel (§VI): counts neighbors of a uniform sample of points to
//    produce the result-size estimate e_b without materializing results.
//  * CSR count/fill and the fused passes' kernels: one body each,
//    templated over the grid view (2-D or 3-D) and run either on a
//    simulated device or on the host pool — see below.
//
// Batched execution (§VI, Fig. 2): batch l of n_b processes points
// i = gid * n_b + l, so every batch samples the (spatially sorted) database
// uniformly and batch result sizes stay nearly equal.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "cudasim/device.hpp"
#include "cudasim/kernel.hpp"
#include "dbscan/neighbor_table.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gpu/result_sink.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::gpu {

/// Block size used throughout the paper's evaluation.
inline constexpr unsigned kDefaultBlockSize = 256;

/// Which slice of the strided point assignment a kernel invocation covers.
struct BatchSpec {
  std::uint32_t batch = 0;
  std::uint32_t num_batches = 1;

  /// Number of points batch `batch` processes out of `n` total.
  [[nodiscard]] std::uint32_t points_in_batch(std::uint32_t n) const noexcept {
    const std::uint32_t base = n / num_batches;
    const std::uint32_t rem = n % num_batches;
    return base + (batch < rem ? 1u : 0u);
  }
};

/// GPUCalcGlobal, synchronous (runs on the calling thread + executor pool):
/// appends every (point, neighbor) pair of the batch through the staged
/// atomic cursor. The paper's Alg. 2, kept for the kernel comparisons; the
/// table builder uses the CSR count/fill passes below.
cudasim::KernelStats run_calc_global(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, ResultSinkView sink,
                                     unsigned block_size = kDefaultBlockSize);

/// GPUCalcShared, synchronous (the paper's Alg. 3). `schedule` maps each
/// block to a (non-empty) cell id; `num_cells` is the grid dimension.
cudasim::KernelStats run_calc_shared(cudasim::Device& device,
                                     const GridView& view,
                                     const std::uint32_t* schedule,
                                     std::uint32_t num_cells, float eps,
                                     ResultSinkView sink,
                                     unsigned block_size = kDefaultBlockSize);

// --- Per-point traversal kernels: one body per kernel, any grid ---------
//
// The count, fill and fused-pass bodies are each written once, as
// templates over the grid view they traverse — BasicGridView<Point>, the
// 3^D-cell stencil of a 2-D (GridView) or 3-D (GridView3) grid. A body
// runs under two executors: a cudasim device launch (run_*, which
// validates, fault-gates, models and records the launch) or the host
// pool (host_*, none of those). Host-run work therefore follows the
// kernels' pair-ownership rule by construction — that is what lets the
// degradation ladder finish a device build's batches on the host.
//
// The table entry points take a `mode`. Under ScanMode::kHalf each
// candidate pair is tested once and only the *forward* rows are emitted;
// the caller restores symmetry afterwards via NeighborTable::assemble. A
// forward row is the same-cell candidates from the query's own id on plus
// the forward stencil, so every cross pair lands in exactly one row — the
// cover the assembler's expansion and the fused union pass require.
// Every tested candidate pays its point fetch and distance test; the
// traversal has no per-pair filter, so every path that runs it is exact.
// Ids are positions in D: a cell's range is its residents' ids, and a
// stencil's abutting ranges are scanned as one.
//
// `View` is GridView or GridView3 (both instantiated in kernels.cpp).

/// Two-pass CSR builder, pass 1: per-point neighbor counts for one batch.
/// Thread g writes |N_eps(point g of the batch)| to counts[g]
/// (counts must hold batch.points_in_batch(n) entries). No atomics.
/// Under ScanMode::kHalf counts[g] is the *forward-row* length (still no
/// atomics — the host transpose restores back rows after the merge).
template <typename View>
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const View& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode = ScanMode::kFull,
                                     unsigned block_size = kDefaultBlockSize);

/// Two-pass CSR builder, pass 2: fills neighbor ids into exact CSR slots.
/// `offsets` is the exclusive prefix scan of the pass-1 counts and `total`
/// their sum; thread g writes its neighbors at values[offsets[g]...] and
/// never past the next row's offset (the batch's last row ends at
/// `total`). No atomics, no sort needed afterwards. `mode` must match the
/// count pass.
template <typename View>
cudasim::KernelStats run_fill_csr(cudasim::Device& device, const View& view,
                                  float eps, BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  std::uint32_t total, PointId* values,
                                  ScanMode mode = ScanMode::kFull,
                                  unsigned block_size = kDefaultBlockSize);

// --- Fused no-table clustering (ClusterMode::kFused) ---------------------
//
// FDBSCAN's passes (core/fused_clustering), each a per-point body that
// writes into the consumer's FusedView in place. With T = max(minpts, 2):
//  * kCore: thread g stores min(degree, T) of its point, self included —
//    FDBSCAN's early exit, the own grid cell scanned first — and counts an
//    event when it stopped at T;
//  * kMark: a point with 2 <= degree < minpts (exact: below T) walks its
//    kFull neighbors until it met all of them and flags each core one,
//    an event per flag issued;
//  * kRecount: a flagged point stores its exact kFull degree, an event
//    each;
//  * kUnion: core status is final, so each core-core pair is unioned into
//    the consumer's AtomicUnionFind and each core/non-core pair folds into
//    the non-core point's border key by atomic max — reading only the
//    degrees of flagged cores, which are exact. On a (2-D) grid view that
//    carries sub-cell runs (SubCells), a core point links each dense run —
//    minpts or more residents of one eps/2 sub-cell, mutual neighbors —
//    in a cell with a sub-cell of kSubCellMinResidents or more with one
//    union instead of testing every resident, an event each. A pair of
//    dense runs is decided by one search over their resident pairs, run
//    by the first resident of one of them.
// Each pass starts once the one before it finished on every batch. A
// store, a flag or a union repeats harmlessly, so every pass may re-run a
// batch. Nothing is parked, and every counter depends on the input alone.
// `mode` is the union pass's scan mode; the other passes walk kFull.

enum class FusedPass : std::uint8_t { kCore, kMark, kRecount, kUnion };

/// One fused pass over one batch on a device. The passes before `pass`
/// must have finished on every batch; the pass's writes land in `sink`
/// and its events in the returned KernelStats::work.events.
template <typename View>
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const View& view, float eps,
                                     BatchSpec batch, FusedPass pass,
                                     StreamingDbscan& sink,
                                     ScanMode mode = ScanMode::kHalf,
                                     unsigned block_size = kDefaultBlockSize);

// --- Host execution of the same bodies -----------------------------------

/// The count body over one batch on the host: entry g is the count
/// run_count_batch writes to counts[g].
template <typename View>
std::vector<std::uint32_t> host_count_batch(const View& view, float eps,
                                            BatchSpec batch,
                                            ScanMode mode = ScanMode::kFull);

/// One CSR batch on the host: the count body, a host exclusive scan and
/// the fill body, then an append_csr_batch into a fresh table of
/// view.num_points rows. The result is the shard a device batch appends
/// (only the batch's keys are filled, as forward rows under kHalf), so
/// NeighborTable::assemble merges it with device-built shards and expands
/// it like them.
template <typename View>
NeighborTable host_csr_batch(const View& view, float eps, BatchSpec batch,
                             ScanMode mode = ScanMode::kFull);

/// One fused pass over one batch on the host: its writes land in `sink`
/// exactly as from run_fused_batch. Returns the work the body charged,
/// events included.
template <typename View>
cudasim::BlockCounters host_fused_batch(const View& view, float eps,
                                        BatchSpec batch, FusedPass pass,
                                        StreamingDbscan& sink,
                                        ScanMode mode = ScanMode::kHalf);

/// Shared-memory bytes GPUCalcShared needs for a given block size (origin
/// and comparison tiles plus the neighbor-cell-id scratch).
[[nodiscard]] std::size_t shared_kernel_smem_bytes(unsigned block_size);

/// Result-size estimation kernel: counts |N_eps(p_i)| for points
/// i = 0, stride, 2*stride, ... over the shared kFull grid traversal and
/// returns the raw sampled count e_b. Runs synchronously; negligible cost
/// by design (no result set).
template <typename View>
std::uint64_t run_count_kernel(cudasim::Device& device, const View& view,
                               float eps, std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out = nullptr,
                               unsigned block_size = kDefaultBlockSize);

}  // namespace hdbscan::gpu
