// The benchmark's own span recorder. Each thread appends to its own buffer
// (its mutex is only ever contended by tracing_start/tracing_take), so
// recording costs two clock reads and an uncontended lock; spans are kept
// in memory and written out when the run ends.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>

#include "bench.hpp"

namespace specbench {

namespace {

struct thread_buffer {
  std::mutex mutex;
  std::vector<span_record> spans;
};

struct tracer_state {
  std::mutex mutex;  ///< guards buffers
  /// Shared with the owning thread, so a buffer outlives a thread that
  /// exits before tracing_take().
  std::vector<std::shared_ptr<thread_buffer>> buffers;
  std::atomic<std::int64_t> epoch_ns{0};
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{0};
};

tracer_state& state() {
  static tracer_state s;
  return s;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

std::shared_ptr<thread_buffer> register_buffer() {
  auto buffer = std::make_shared<thread_buffer>();
  auto& s = state();
  std::lock_guard lock(s.mutex);
  s.buffers.push_back(buffer);
  return buffer;
}

thread_local std::vector<std::uint64_t> t_open;  // this thread's open span ids
thread_local std::uint32_t t_thread = state().next_thread.fetch_add(1);
thread_local std::shared_ptr<thread_buffer> t_buffer;

}  // namespace

void tracing_start() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  for (const auto& b : s.buffers) {
    std::lock_guard buffer_lock(b->mutex);
    b->spans.clear();
  }
  s.epoch_ns.store(steady_ns());
  s.on.store(true);
}

bool tracing_on() { return state().on.load(std::memory_order_relaxed); }

std::vector<span_record> tracing_take() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  s.on.store(false);
  std::vector<span_record> all;
  for (const auto& b : s.buffers) {
    std::lock_guard buffer_lock(b->mutex);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return all;
}

std::uint64_t current_span() { return t_open.empty() ? 0 : t_open.back(); }

span::span(const char* name, std::uint64_t request, std::uint64_t parent) {
  if (!tracing_on()) return;
  active_ = true;
  rec_.name = name;
  rec_.id = state().next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent != 0 ? parent : current_span();
  rec_.request = request;
  rec_.thread = t_thread;
  t_open.push_back(rec_.id);
  rec_.start_ns = steady_ns() - state().epoch_ns.load(std::memory_order_relaxed);
}

span::~span() {
  if (!active_) return;
  rec_.end_ns = steady_ns() - state().epoch_ns.load(std::memory_order_relaxed);
  t_open.pop_back();
  if (!t_buffer) t_buffer = register_buffer();
  std::lock_guard lock(t_buffer->mutex);
  t_buffer->spans.push_back(rec_);
}

std::map<std::string, double> self_seconds(const std::vector<span_record>& spans) {
  // 1. Per thread, cut the timeline into segments owned by the innermost
  //    open span (spans of one thread nest, since they are scoped).
  struct segment {
    std::size_t span_index;
    std::int64_t t0;
    std::int64_t t1;
  };
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) by_thread[spans[i].thread].push_back(i);
  std::vector<segment> segments;
  for (auto& [thread, indices] : by_thread) {
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) return spans[a].start_ns < spans[b].start_ns;
      return spans[a].end_ns > spans[b].end_ns;  // the enclosing span first
    });
    std::vector<std::size_t> stack;
    std::int64_t t = 0;
    const auto emit = [&](std::size_t owner, std::int64_t t0, std::int64_t t1) {
      if (t1 > t0) segments.push_back({owner, t0, t1});
    };
    for (const auto i : indices) {
      while (!stack.empty() && spans[stack.back()].end_ns <= spans[i].start_ns) {
        emit(stack.back(), t, spans[stack.back()].end_ns);
        t = spans[stack.back()].end_ns;
        stack.pop_back();
      }
      if (!stack.empty()) emit(stack.back(), t, spans[i].start_ns);
      stack.push_back(i);
      t = spans[i].start_ns;
    }
    while (!stack.empty()) {
      emit(stack.back(), t, spans[stack.back()].end_ns);
      t = spans[stack.back()].end_ns;
      stack.pop_back();
    }
  }

  // 2. A span with a child open on another thread (core.pipeline while pool
  //    threads run its core.bucket children) is waiting for that child
  //    whenever it is innermost on its own thread, as when the caller of
  //    parallel_for has run out of buckets.
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::size_t> waiting(spans.size(), 0);  // remote children open now

  // 3. Sweep all threads' segments together; each elementary interval is
  //    shared evenly by the active segments whose span is not waiting (by
  //    all active segments if every one of them is).
  struct event {
    std::int64_t t;
    bool open;
    bool remote_child;  ///< `index` is a span whose parent is on another thread
    std::size_t index;  ///< a segment, or the remote child's span
  };
  std::vector<event> events;
  events.reserve(segments.size() * 2);
  for (std::size_t k = 0; k < segments.size(); ++k) {
    events.push_back({segments[k].t0, true, false, k});
    events.push_back({segments[k].t1, false, false, k});
  }
  std::vector<std::size_t> parent_of(spans.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index_of.find(spans[i].parent);
    if (it == index_of.end() || spans[it->second].thread == spans[i].thread) continue;
    parent_of[i] = it->second;
    events.push_back({spans[i].start_ns, true, true, i});
    events.push_back({spans[i].end_ns, false, true, i});
  }
  std::sort(events.begin(), events.end(), [](const event& a, const event& b) {
    if (a.t != b.t) return a.t < b.t;
    return !a.open && b.open;  // close before open at the same instant
  });
  std::vector<double> share(segments.size(), 0.0);
  std::vector<std::size_t> active;
  std::vector<std::size_t> working;
  std::int64_t last = 0;
  for (const auto& e : events) {
    if (!active.empty() && e.t > last) {
      working.clear();
      for (const auto k : active) {
        if (waiting[segments[k].span_index] == 0) working.push_back(k);
      }
      const auto& owners = working.empty() ? active : working;
      const double dt = static_cast<double>(e.t - last) * 1e-9 /
                        static_cast<double>(owners.size());
      for (const auto k : owners) share[k] += dt;
    }
    last = e.t;
    if (e.remote_child) {
      auto& count = waiting[parent_of[e.index]];
      count = e.open ? count + 1 : count - 1;
    } else if (e.open) {
      active.push_back(e.index);
    } else {
      active.erase(std::find(active.begin(), active.end(), e.index));
    }
  }
  std::map<std::string, double> result;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    result[spans[segments[k].span_index].name] += share[k];
  }
  return result;
}

std::vector<double> durations_us(const std::vector<span_record>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void write_spans(const std::vector<span_record>& spans, const std::string& phase,
                 const std::string& path) {
  std::ofstream out(path, std::ios::app);
  for (const auto& s : spans) {
    out << "{\"phase\":\"" << phase << "\",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

void print_layer_table(const std::vector<span_record>& spans, const std::string& title) {
  const auto self = self_seconds(spans);
  std::map<std::string, std::pair<std::size_t, double>> totals;
  for (const auto& s : spans) {
    auto& t = totals[s.name];
    t.first += 1;
    t.second += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::cout << "\nper-layer table (" << title << ")\n"
            << std::left << std::setw(34) << "span" << std::right << std::setw(9)
            << "count" << std::setw(13) << "total_s" << std::setw(13) << "self_s"
            << std::setw(13) << "p50_us" << "\n";
  double self_sum = 0.0;
  for (const auto& [name, t] : totals) {
    const double self_s = self.count(name) != 0 ? self.at(name) : 0.0;
    self_sum += self_s;
    std::cout << std::left << std::setw(34) << name << std::right << std::setw(9) << t.first
              << std::setw(13) << std::fixed << std::setprecision(4) << t.second
              << std::setw(13) << self_s << std::setw(13) << std::setprecision(1)
              << median(durations_us(spans, name)) << "\n";
  }
  std::cout << std::left << std::setw(34) << "(sum of self times)" << std::right
            << std::setw(35) << std::setprecision(4) << self_sum << "\n"
            << std::defaultfloat;
}

}  // namespace specbench
