#include "src/util/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <string>

namespace fcrit::util {

namespace {

thread_local bool t_in_parallel_region = false;

struct RegionGuard {
  bool previous;
  RegionGuard() : previous(t_in_parallel_region) {
    t_in_parallel_region = true;
  }
  ~RegionGuard() { t_in_parallel_region = previous; }
};

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int parse_thread_count(const std::string& text) {
  if (text.empty()) return -1;
  for (const char c : text)
    if (c < '0' || c > '9') return -1;
  try {
    const unsigned long v = std::stoul(text);
    if (v > 1024) return -1;  // a typo, not a machine
    return static_cast<int>(v);
  } catch (const std::exception&) {
    return -1;
  }
}

ThreadPool::ThreadPool(int threads) {
  lanes_ = threads == 0 ? hardware_threads() : std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int i = 0; i < lanes_ - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

void ThreadPool::run_chunk(Region& region, std::int64_t begin,
                           std::int64_t end) {
  {
    RegionGuard guard;
    try {
      (*region.body)(begin, end);
    } catch (...) {
      MutexLock lock(region.mutex);
      if (!region.error) region.error = std::current_exception();
    }
  }
  // The final decrement + notify happen under the region mutex so the
  // caller cannot observe pending == 0, return, and destroy the region
  // while a runner still holds it.
  MutexLock lock(region.mutex);
  if (--region.pending == 0) region.done.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedChunk chunk;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_ready_.wait(lock.native());
      if (queue_.empty()) return;  // stopping_ and fully drained
      chunk = queue_.front();
      queue_.pop_front();
    }
    run_chunk(*chunk.region, chunk.begin, chunk.end);
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t min_chunk, const ChunkFn& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  min_chunk = std::max<std::int64_t>(1, min_chunk);
  const int chunks = static_cast<int>(
      std::min<std::int64_t>(lanes_, (n + min_chunk - 1) / min_chunk));
  if (chunks <= 1 || t_in_parallel_region) {
    RegionGuard guard;
    body(begin, end);
    return;
  }

  Region region;
  region.body = &body;
  {
    // No runner exists yet; locking here only satisfies the thread-safety
    // analysis (pending is guarded for the runners' sake).
    MutexLock lock(region.mutex);
    region.pending = chunks;
  }

  // Static partition: chunk c covers base rows plus one of the remainder.
  const std::int64_t base = n / chunks;
  const std::int64_t rem = n % chunks;
  const std::int64_t first_end = begin + base + (rem > 0 ? 1 : 0);
  {
    MutexLock lock(mutex_);
    std::int64_t s = first_end;
    for (int c = 1; c < chunks; ++c) {
      const std::int64_t len = base + (c < rem ? 1 : 0);
      queue_.push_back({&region, s, s + len});
      s += len;
    }
  }
  work_ready_.notify_all();

  // The caller is lane 0.
  run_chunk(region, begin, first_end);

  // Help with this region's still-queued chunks: when every worker is busy
  // with other regions (concurrent serve requests), the caller completes
  // its own region instead of blocking on someone else's schedule.
  for (;;) {
    QueuedChunk chunk;
    bool found = false;
    {
      MutexLock lock(mutex_);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->region == &region) {
          chunk = *it;
          queue_.erase(it);
          found = true;
          break;
        }
      }
    }
    if (!found) break;
    run_chunk(region, chunk.begin, chunk.end);
  }

  std::exception_ptr error;
  {
    MutexLock lock(region.mutex);
    while (region.pending != 0) region.done.wait(lock.native());
    error = region.error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

// Shared-pool state: parallel_for holds the shared side for the duration
// of a region, set_num_threads takes the exclusive side to swap the pool.
std::shared_mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
bool g_configured = false;
int g_requested = 0;

int requested_from_env() {
  const char* env = std::getenv("FCRIT_THREADS");
  if (!env) return 0;  // default: hardware concurrency
  const int parsed = parse_thread_count(env);
  return parsed < 0 ? 0 : parsed;
}

/// Must hold g_pool_mutex (either side) when dereferencing the result.
ThreadPool* ensure_pool_locked() {
  if (!g_pool) {
    if (!g_configured) {
      g_requested = requested_from_env();
      g_configured = true;
    }
    g_pool = std::make_unique<ThreadPool>(g_requested);
  }
  return g_pool.get();
}

}  // namespace

void set_num_threads(int n) {
  std::unique_lock<std::shared_mutex> lock(g_pool_mutex);
  n = std::max(0, n);
  const int lanes = n == 0 ? hardware_threads() : n;
  g_configured = true;
  g_requested = n;
  if (g_pool && g_pool->threads() == lanes) return;
  g_pool.reset();  // joins the old workers before the new pool spawns
  g_pool = std::make_unique<ThreadPool>(n);
}

int num_threads() {
  {
    std::shared_lock<std::shared_mutex> lock(g_pool_mutex);
    if (g_pool) return g_pool->threads();
  }
  std::unique_lock<std::shared_mutex> lock(g_pool_mutex);
  return ensure_pool_locked()->threads();
}

bool in_parallel_region() { return t_in_parallel_region; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t min_chunk,
                  const ChunkFn& body) {
  if (end - begin <= 0) return;
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> lock(g_pool_mutex);
      if (g_pool) {
        g_pool->parallel_for(begin, end, min_chunk, body);
        return;
      }
    }
    // First use (or a concurrent set_num_threads swapped the pool away):
    // create under the exclusive lock, then retry the shared path.
    std::unique_lock<std::shared_mutex> lock(g_pool_mutex);
    ensure_pool_locked();
  }
}

}  // namespace fcrit::util
