#include "common/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/config.hpp"

namespace verihvac::common {
namespace {

// Process-wide (all pools share the hook, so the in-flight gauge spans
// pools too — the shared pool is the one that matters in production).
std::atomic<TaskPool::MetricsHook> g_metrics_hook{nullptr};
std::atomic<std::size_t> g_active_jobs{0};

/// RAII observation around one parallel_for: times the fan-out and fires
/// the hook on exit. No clock reads while no hook is installed, so the
/// instrumented and uninstrumented paths only differ by one relaxed load.
class ScopedPoolObservation {
 public:
  explicit ScopedPoolObservation(std::size_t items)
      : hook_(g_metrics_hook.load(std::memory_order_relaxed)), items_(items) {
    if (hook_ == nullptr) return;
    active_ = g_active_jobs.fetch_add(1, std::memory_order_relaxed) + 1;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPoolObservation() {
    if (hook_ == nullptr) return;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    g_active_jobs.fetch_sub(1, std::memory_order_relaxed);
    hook_(items_, seconds, active_);
  }

 private:
  TaskPool::MetricsHook hook_;
  std::size_t items_;
  std::size_t active_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

// Shared state for one parallel_for invocation plus the pool's lifecycle.
// Workers sleep on `cv_work` between jobs; the caller sleeps on `cv_done`
// while chunks drain. Chunks are claimed dynamically through `next_chunk`
// (work stealing keeps uneven per-item costs balanced); which worker claims
// which chunk does not affect results, because each index is processed
// exactly once and outputs are per-index.
struct TaskPool::Job {
  /// Serializes whole parallel_for invocations: the pool runs one batch at
  /// a time, so several clients may safely share TaskPool::shared().
  std::mutex submit_mutex;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  // Current job description (guarded by mutex; read by workers after wake).
  std::uint64_t generation = 0;
  bool shutdown = false;
  std::size_t n = 0;
  std::size_t chunk_size = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next_chunk{0};
  std::size_t workers_running = 0;
  std::exception_ptr first_error;

  void run_chunks(std::size_t worker_id) {
    for (;;) {
      const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunk_count) return;
      const std::size_t begin = chunk * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      try {
        (*body)(worker_id, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
};

TaskPool::TaskPool(TaskPoolConfig config) : config_(config), job_(std::make_shared<Job>()) {
  std::size_t threads = config_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(job_->mutex);
    job_->shutdown = true;
  }
  job_->cv_work.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::worker_loop(std::size_t worker_id) {
  Job& job = *job_;
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(job.mutex);
      job.cv_work.wait(lock, [&] { return job.shutdown || job.generation != seen_generation; });
      if (job.shutdown) return;
      seen_generation = job.generation;
    }
    job.run_chunks(worker_id);
    {
      std::lock_guard<std::mutex> lock(job.mutex);
      if (--job.workers_running == 0) job.cv_done.notify_one();
    }
  }
}

void TaskPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const {
  if (n == 0) return;
  ScopedPoolObservation observation(n);
  if (workers_.empty() || n < config_.min_parallel_batch) {
    body(0, 0, n);
    return;
  }

  Job& job = *job_;
  std::lock_guard<std::mutex> submit_lock(job.submit_mutex);
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.n = n;
    // ~4 chunks per thread balances load without excessive claim traffic.
    job.chunk_size = std::max<std::size_t>(1, n / (4 * thread_count()));
    job.chunk_count = (n + job.chunk_size - 1) / job.chunk_size;
    job.body = &body;
    job.next_chunk.store(0, std::memory_order_relaxed);
    job.workers_running = workers_.size();
    job.first_error = nullptr;
    ++job.generation;
  }
  job.cv_work.notify_all();

  job.run_chunks(0);  // the caller is worker 0

  std::unique_lock<std::mutex> lock(job.mutex);
  job.cv_done.wait(lock, [&] { return job.workers_running == 0; });
  job.body = nullptr;
  if (job.first_error) std::rethrow_exception(job.first_error);
}

TaskPool::MetricsHook TaskPool::set_metrics_hook(MetricsHook hook) {
  return g_metrics_hook.exchange(hook, std::memory_order_acq_rel);
}

std::shared_ptr<const TaskPool> TaskPool::shared() {
  static const std::shared_ptr<const TaskPool> instance = [] {
    const long threads = env_or_long("VERI_HVAC_THREADS", 0);  // 0 = hardware concurrency
    if (threads < 0) {
      throw std::invalid_argument("environment variable VERI_HVAC_THREADS expects a "
                                  "non-negative count, got '" + std::to_string(threads) + "'");
    }
    TaskPoolConfig config;
    config.threads = static_cast<std::size_t>(threads);
    return std::make_shared<const TaskPool>(config);
  }();
  return instance;
}

}  // namespace verihvac::common
