#include "util/thread_pool.h"

#include <cstdlib>

namespace dtnic::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      // Drain the queue even when stopping: submitted futures stay valid.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("DTNIC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {
std::mutex g_shared_mutex;
std::unique_ptr<ThreadPool> g_shared_pool;
}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  if (!g_shared_pool) g_shared_pool = std::make_unique<ThreadPool>();
  return *g_shared_pool;
}

void ThreadPool::set_shared_threads(std::size_t threads) {
  auto replacement = std::make_unique<ThreadPool>(threads);
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  g_shared_pool = std::move(replacement);
}

}  // namespace dtnic::util
