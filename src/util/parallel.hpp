// Shared work-chunked thread pool behind every parallel ML math kernel.
//
// parallel_for(begin, end, body) splits [begin, end) into at most
// num_threads() contiguous chunks and runs body(chunk_begin, chunk_end) on
// the pool, with the calling thread executing one chunk itself (so forward
// progress never depends on a free worker). The partitioning is static —
// each output row belongs to exactly one chunk and rows keep their serial
// iteration order inside a chunk — which is what lets the kernels in
// src/ml/ guarantee bitwise-identical results for any thread count:
// per-row floating-point accumulation order never changes, only which
// thread owns the row.
//
// Semantics the tests rely on:
//   - empty ranges return immediately without touching the pool;
//   - a single resulting chunk runs inline on the caller;
//   - nested parallel_for calls (body itself calls parallel_for) degrade
//     to inline serial execution instead of deadlocking the pool;
//   - the first exception a chunk throws is captured and rethrown on the
//     caller after every chunk of the region finished;
//   - concurrent parallel_for calls from different threads (the serve
//     engine's workers) interleave safely on one pool.
//
// Thread-count resolution: set_num_threads(n) with 0 = hardware
// concurrency and 1 = exact serial fallback (no pool involvement at all);
// when never called, the FCRIT_THREADS environment variable is consulted
// once, and without it the default is hardware concurrency. The CLI's
// --jobs flag and core::PipelineConfig::jobs both funnel into
// set_num_threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/thread_annotations.hpp"

namespace fcrit::util {

/// Chunk callback: half-open index range [chunk_begin, chunk_end).
using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

class ThreadPool {
 public:
  /// `threads` is the total lane count including the calling thread;
  /// 0 resolves to hardware concurrency, so the pool spawns
  /// max(0, threads - 1) workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the caller), always >= 1.
  int threads() const { return lanes_; }

  /// Run body over [begin, end) in at most threads() static chunks, each
  /// at least min_chunk indices long (so tiny ranges stay inline and a
  /// chunk amortizes its dispatch cost). Blocks until every chunk
  /// finished; rethrows the first chunk exception.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    std::int64_t min_chunk, const ChunkFn& body);
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const ChunkFn& body) {
    parallel_for(begin, end, 1, body);
  }

 private:
  /// Per-call completion state; lives on the caller's stack and is only
  /// touched by chunk runners under its own mutex, so a region can never
  /// outlive its parallel_for call.
  struct Region {
    const ChunkFn* body = nullptr;
    Mutex mutex;
    std::condition_variable done;
    int pending GUARDED_BY(mutex) = 0;
    std::exception_ptr error GUARDED_BY(mutex);  // first one wins
  };

  struct QueuedChunk {
    Region* region = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  static void run_chunk(Region& region, std::int64_t begin, std::int64_t end);
  void worker_loop();

  int lanes_ = 1;
  Mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<QueuedChunk> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  // touched only by ctor/dtor
};

/// Hardware concurrency, clamped to >= 1.
int hardware_threads();

/// The largest thread count FCRIT_THREADS or `fcrit --jobs` accepts: a
/// larger one is a typo, not a machine.
inline constexpr int kMaxThreads = 1024;

/// Parse a FCRIT_THREADS value: "0" = hardware concurrency, "N" in
/// [1, kMaxThreads] = exactly N lanes. Returns -1 for anything else
/// (callers fall back to the default rather than aborting a run over a
/// malformed environment variable).
int parse_thread_count(const std::string& text);

/// Configure the shared pool: 0 = hardware concurrency, n >= 1 = exactly
/// n lanes (1 = serial: parallel_for runs inline, no pool). Rebuilds the
/// shared pool; must not race with in-flight parallel_for calls that it
/// would resize under (a shared lock serializes them).
void set_num_threads(int n);

/// The resolved lane count the next parallel_for will use (>= 1).
int num_threads();

/// True while the current thread is executing a pool chunk; nested
/// parallel_for calls check this to degrade inline.
bool in_parallel_region();

/// parallel_for against the process-shared pool (serial inline when the
/// configured lane count is 1).
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t min_chunk,
                  const ChunkFn& body);
inline void parallel_for(std::int64_t begin, std::int64_t end,
                         const ChunkFn& body) {
  parallel_for(begin, end, 1, body);
}

}  // namespace fcrit::util
