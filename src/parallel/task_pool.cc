#include "parallel/task_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace csq::par {

namespace {

// One parallel_for call. It lives on the submitter's stack; every field but
// `next` is guarded by the mutex of the pool that runs it.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};  // claim cursor; passes n once spent
  std::size_t attempted = 0;         // indices run to completion or throw
  int holders = 0;                   // workers still holding this pointer
  std::exception_ptr error;          // first failure
  std::condition_variable done_cv;
};

// Runs fn on every index the cursor still hands out, keeping the first
// exception in `error`; returns how many indices ran.
std::size_t run_indices(Job& job, std::exception_ptr& error) {
  std::size_t ran = 0;
  // The bodies' writes reach the submitter through the pool mutex, which
  // guards `attempted`; relaxed claims suffice, as the cursor only has to
  // hand each index to one thread.
  for (std::size_t i; (i = job.next.fetch_add(1, std::memory_order_relaxed)) < job.n; ++ran) {
    try {
      (*job.fn)(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  return ran;
}

class Pool {
 public:
  explicit Pool(int threads) {
    for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { work(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Workers hold `this`: the pool never moves.
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Queues the job, wakes no more workers than it has indices, and blocks
  // until every index ran and no worker still holds the job.
  void run_job(Job& job) {
    std::unique_lock<std::mutex> lk(m_);
    jobs_.push_back(&job);
    const std::size_t waking = std::min(job.n, workers_.size());
    for (std::size_t k = 0; k < waking; ++k) wake_.notify_one();
    job.done_cv.wait(lk, [&] { return job.attempted == job.n && job.holders == 0; });
  }

 private:
  // Workers only ever take the front job, so a job a worker holds is either
  // still the front or already retired; the submitter frees it only after
  // the last holder let go.
  void work() {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      if (jobs_.empty()) {
        if (stop_) return;
        CSQ_OBS_COUNT(kPoolWorkersSuspended);
        wake_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
        continue;
      }
      Job& job = *jobs_.front();
      ++job.holders;
      lk.unlock();
      std::exception_ptr error;
      const std::size_t ran = run_indices(job, error);
      CSQ_OBS_COUNT_N(kPoolTasksExecuted, ran);
      lk.lock();
      // The cursor is spent: retire the job so later workers move on.
      if (!jobs_.empty() && jobs_.front() == &job) jobs_.pop_front();
      job.attempted += ran;
      if (error && !job.error) job.error = error;
      if (--job.holders == 0 && job.attempted == job.n) job.done_cv.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable wake_;
  std::deque<Job*> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

Pool& shared_pool(int threads) {
  static std::mutex m;
  static std::map<int, std::unique_ptr<Pool>> pools;
  std::lock_guard<std::mutex> lk(m);
  std::unique_ptr<Pool>& slot = pools[threads];
  if (!slot) slot = std::make_unique<Pool>(threads);
  return *slot;
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int threads) {
  if (threads == 0) return hardware_threads();
  return std::max(1, threads);
}

void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  Job job;
  job.fn = &fn;
  job.n = n;
  threads = resolve_threads(threads);
  if (threads <= 1 || n <= 1)
    run_indices(job, job.error);
  else
    shared_pool(threads).run_job(job);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace csq::par
