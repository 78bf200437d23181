// The paper's two epsilon-neighborhood GPU kernels plus the result-size
// estimation kernel for the batching scheme.
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
//
// Batched execution (§VI, Fig. 2): batch l of n_b processes points
// i = gid * n_b + l, so every batch samples the (spatially sorted) database
// uniformly and batch result sizes stay nearly equal.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "cudasim/device.hpp"
#include "cudasim/kernel.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gpu/result_sink.hpp"
#include "index/bvh.hpp"
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

// Every traversal entry point below takes a `mode` and a trailing
// `quality`. Under ScanMode::kHalf each candidate pair is tested once and
// only the *forward* rows are emitted (same-cell candidates at/after the
// query's lookup position plus the forward stencil); the caller restores
// symmetry afterwards via NeighborTable::expand_half_table. Under
// ClusterQuality::kSubsampled each candidate pair is run through the
// seeded Bernoulli filter *before* the candidate's point is read, so a
// dropped pair costs only the 4-byte id read plus the hash — the point
// fetch and distance test are skipped. Self-pairs always pass. The
// estimation kernel stays exact (the estimate is a property of the data);
// the planner scales it by the sample rate instead.

/// Two-pass CSR builder, pass 1: per-point neighbor counts for one batch.
/// Thread g writes |N_eps(point g of the batch)| to counts[g]
/// (counts must hold batch.points_in_batch(n) entries). No atomics.
/// Under ScanMode::kHalf counts[g] is the *forward-row* length (still no
/// atomics — the host transpose restores back rows after the merge).
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode = ScanMode::kFull,
                                     unsigned block_size = kDefaultBlockSize,
                                     QualitySpec quality = {});

/// Two-pass CSR builder, pass 2: fills neighbor ids into exact CSR slots.
/// `offsets` is the exclusive prefix scan of the pass-1 counts; thread g
/// writes its neighbors at values[offsets[g]...]. No atomics, no sort
/// needed afterwards. `mode` must match the count pass.
cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const GridView& view, float eps,
                                  BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values,
                                  ScanMode mode = ScanMode::kFull,
                                  unsigned block_size = kDefaultBlockSize,
                                  QualitySpec quality = {});

// --- IndexBackend::kBvh traversal variants -------------------------------
//
// Same per-point batching contract as the grid kernels, but candidates
// come from a packed-BVH stack traversal (min_dist2 pruning against node
// MBRs) instead of the 9-cell stencil. Under ScanMode::kHalf the tree has
// no forward stencil, so the half rule is id-based: row i owns exactly the
// candidates with id >= i (self included) and subtrees whose max_id < i
// are pruned outright. Every cross pair lands in exactly one row — the
// same cover expand_half_table and the streaming consumer require — so
// the merged/expanded table is identical to the grid backend's.

/// Two-pass CSR pass 1 over the BVH: counts[g] = |forward row of batch
/// point g| (full row under kFull). No atomics.
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const BvhView& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode = ScanMode::kFull,
                                     unsigned block_size = kDefaultBlockSize,
                                     QualitySpec quality = {});

/// Two-pass CSR pass 2 over the BVH; `mode` must match the count pass.
cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const BvhView& view, float eps,
                                  BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values,
                                  ScanMode mode = ScanMode::kFull,
                                  unsigned block_size = kDefaultBlockSize,
                                  QualitySpec quality = {});

// --- Fused no-table clustering traversal (ClusterMode::kFused) -----------
//
// One launch does everything the count pass, scan, fill pass, transfers
// and sink hop did: thread i traverses its neighborhood once, accumulates
// its own degree locally (one fetch_add at thread end), adds the back
// contribution to degree[j] per cross pair (kHalf), and — because core
// status is monotone — unions both-core pairs into the consumer's
// AtomicUnionFind on the spot. Pairs that cannot be decided yet are
// buffered thread-locally and parked through StreamingDbscan::ingest_fused
// for the compaction/finalize machinery to settle. The neighbor table is
// never materialized: the only per-pair bytes are the parked-edge writes.

/// Fused traversal over the grid backend. Returns the launch's stats;
/// degrees/unions/parked edges land in `sink`.
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     ScanMode mode = ScanMode::kHalf,
                                     unsigned block_size = kDefaultBlockSize,
                                     QualitySpec quality = {});

/// Fused traversal over the BVH backend.
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const BvhView& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     ScanMode mode = ScanMode::kHalf,
                                     unsigned block_size = kDefaultBlockSize,
                                     QualitySpec quality = {});

/// Shared-memory bytes GPUCalcShared needs for a given block size (origin
/// and comparison tiles plus the neighbor-cell-id scratch).
[[nodiscard]] std::size_t shared_kernel_smem_bytes(unsigned block_size);

/// Result-size estimation kernel: counts |N_eps(p_i)| for points
/// i = 0, stride, 2*stride, ... and returns the raw sampled count e_b.
/// Runs synchronously; negligible cost by design (no result set).
std::uint64_t run_count_kernel(cudasim::Device& device, const GridView& view,
                               float eps, std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out = nullptr,
                               unsigned block_size = kDefaultBlockSize);

}  // namespace hdbscan::gpu
