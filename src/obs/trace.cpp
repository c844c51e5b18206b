#include "src/obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "src/common/json.hpp"

namespace soc::obs {

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }

Tracer* install_tracer(Tracer* t) {
  Tracer* prev = g_tracer;
  g_tracer = t;
  return prev;
}

void Tracer::set_lane(std::uint32_t pid, std::string name) {
  pid_ = pid;
  for (const auto& [known, _] : lanes_) {
    if (known == pid) return;
  }
  lanes_.emplace_back(pid, std::move(name));
}

void Tracer::push(Event e) {
  e.pid = pid_;
  events_.push_back(e);
}

void Tracer::begin(const char* cat, const char* name, std::uint64_t id,
                   SimTime ts) {
  push(Event{.ph = 'b', .cat = cat, .name = name, .id = id, .ts = ts});
}

void Tracer::end(const char* cat, const char* name, std::uint64_t id,
                 SimTime ts) {
  push(Event{.ph = 'e', .cat = cat, .name = name, .id = id, .ts = ts});
}

void Tracer::mark(const char* cat, const char* name, std::uint64_t id,
                  SimTime ts) {
  push(Event{.ph = 'n', .cat = cat, .name = name, .id = id, .ts = ts});
}

void Tracer::instant(const char* cat, const char* name, SimTime ts) {
  push(Event{.ph = 'i', .cat = cat, .name = name, .ts = ts});
}

void Tracer::instant(const char* cat, const char* name, SimTime ts,
                     const char* arg_key, std::uint64_t arg) {
  push(Event{
      .ph = 'i', .cat = cat, .name = name, .arg_key = arg_key, .ts = ts,
      .arg = arg});
}

void Tracer::complete(const char* cat, const char* name, SimTime ts,
                      SimTime dur) {
  push(Event{.ph = 'X', .cat = cat, .name = name, .ts = ts, .dur = dur});
}

void Tracer::complete(const char* cat, const char* name, SimTime ts,
                      SimTime dur, const char* arg_key, std::uint64_t arg) {
  push(Event{
      .ph = 'X', .cat = cat, .name = name, .arg_key = arg_key, .ts = ts,
      .dur = dur, .arg = arg});
}

std::size_t Tracer::count_ph(char ph) const {
  std::size_t n = 0;
  for (const Event& e : events_) n += (e.ph == ph) ? 1 : 0;
  return n;
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\": [\n";
  const std::size_t head = out.size();
  const auto emit = [&out, head](json::Object event) {
    if (out.size() > head) out += ",\n";
    out += json::dump(json::Value(std::move(event)));
  };
  for (const auto& [pid, name] : lanes_) {
    emit({{"ph", "M"}, {"pid", std::uint64_t{pid}}, {"tid", std::uint64_t{0}},
          {"name", "process_name"}, {"args", json::Object{{"name", name}}}});
  }
  for (const Event& e : events_) {
    json::Object v{{"ph", std::string(1, e.ph)}, {"pid", std::uint64_t{e.pid}},
                   {"tid", std::uint64_t{0}}, {"cat", e.cat}, {"name", e.name}};
    if (e.ph == 'b' || e.ph == 'e' || e.ph == 'n') {
      char id[24];
      std::snprintf(id, sizeof(id), "0x%" PRIx64, e.id);
      v.emplace_back("id", id);
    }
    if (e.ph == 'i') v.emplace_back("s", "p");
    v.emplace_back("ts", static_cast<std::uint64_t>(e.ts));
    if (e.ph == 'X') v.emplace_back("dur", static_cast<std::uint64_t>(e.dur));
    if (e.arg_key != nullptr) {
      v.emplace_back("args", json::Object{{e.arg_key, e.arg}});
    }
    emit(std::move(v));
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::export_json(const std::string& path) const {
  return json::write_atomic(path, to_json());
}

}  // namespace soc::obs
