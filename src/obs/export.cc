#include "src/obs/export.h"

#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "src/common/hexdump.h"
#include "src/obs/json.h"

namespace circus::obs {

namespace {

using ThreadKey = std::tuple<uint32_t, uint16_t, uint16_t>;

ThreadKey KeyOf(const ThreadRef& t) { return {t.machine, t.port, t.local}; }

bool IsSpanBegin(EventKind k) {
  return k == EventKind::kCallIssue || k == EventKind::kExecuteBegin;
}
bool IsSpanEnd(EventKind k) {
  return k == EventKind::kCallCollate || k == EventKind::kExecuteEnd;
}

}  // namespace

json::Value EventToJson(const Event& e) {
  json::Value obj = json::Value::Object();
  obj.Set("t_ns", e.time_ns);
  obj.Set("kind", EventKindName(e.kind));
  obj.Set("host", static_cast<uint64_t>(e.host));
  if (e.incarnation != 0) {
    obj.Set("inc", e.incarnation);
  }
  if (e.origin != 0) {
    obj.Set("origin", PackedAddressToString(e.origin));
  }
  if (!e.thread.zero()) {
    obj.Set("thread", e.thread.ToString());
    obj.Set("seq", static_cast<uint64_t>(e.thread_seq));
  }
  if (e.a != 0) obj.Set("a", e.a);
  if (e.b != 0) obj.Set("b", e.b);
  if (e.c != 0) obj.Set("c", e.c);
  if (IsPacketEvent(e.kind)) {
    // The datagram itself (c already carries its size): a trace shard
    // doubles as the node's wire capture.
    obj.Set("data", HexEncode(e.payload));
  } else if (!e.payload.empty()) {
    obj.Set("payload_bytes", static_cast<uint64_t>(e.payload.size()));
  }
  if (!e.detail.empty()) {
    obj.Set("detail", e.detail);
  }
  return obj;
}

std::string ToJsonLines(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    out += EventToJson(e).Dump();
    out += '\n';
  }
  return out;
}

std::string ToChromeTrace(
    const std::vector<Event>& events,
    const std::map<uint32_t, std::string>& host_names) {
  json::Value trace_events = json::Value::Array();

  // tid assignment: one small integer per distinct logical thread, in
  // first-appearance order; tid 0 is the un-attributed (transport) lane.
  std::map<ThreadKey, int> tids;
  std::vector<ThreadRef> tid_threads;
  auto tid_of = [&](const ThreadRef& t) -> int {
    if (t.zero()) {
      return 0;
    }
    auto [it, inserted] =
        tids.emplace(KeyOf(t), static_cast<int>(tids.size()) + 1);
    if (inserted) {
      tid_threads.push_back(t);
    }
    return it->second;
  };

  // Spans: match begin/end per (host, thread, seq, kind) FIFO.
  using SpanKey = std::tuple<uint32_t, uint32_t, uint16_t, uint16_t,
                             uint32_t, bool>;
  std::map<SpanKey, std::vector<size_t>> open;  // -> index into pending
  struct Pending {
    Event begin;
    bool closed = false;
    int64_t end_ns = 0;
  };
  std::vector<Pending> pending;

  std::map<uint32_t, bool> hosts_seen;

  for (const Event& e : events) {
    hosts_seen[e.host] = true;
    if (IsSpanBegin(e.kind)) {
      const SpanKey key{e.host,       e.thread.machine,
                        e.thread.port, e.thread.local,
                        e.thread_seq, e.kind == EventKind::kCallIssue};
      open[key].push_back(pending.size());
      pending.push_back(Pending{e, false, 0});
      continue;
    }
    if (IsSpanEnd(e.kind)) {
      const SpanKey key{e.host,       e.thread.machine,
                        e.thread.port, e.thread.local,
                        e.thread_seq, e.kind == EventKind::kCallCollate};
      auto it = open.find(key);
      if (it != open.end() && !it->second.empty()) {
        Pending& p = pending[it->second.front()];
        it->second.erase(it->second.begin());
        p.closed = true;
        p.end_ns = e.time_ns;
        continue;
      }
      // Unmatched end: fall through and emit as an instant.
    }
    json::Value inst = json::Value::Object();
    inst.Set("name", EventKindName(e.kind));
    inst.Set("ph", "i");
    inst.Set("s", "t");
    inst.Set("ts", static_cast<double>(e.time_ns) / 1000.0);
    inst.Set("pid", static_cast<uint64_t>(e.host));
    inst.Set("tid", static_cast<int64_t>(tid_of(e.thread)));
    json::Value args = json::Value::Object();
    if (e.a != 0) args.Set("a", e.a);
    if (e.b != 0) args.Set("b", e.b);
    if (e.c != 0) args.Set("c", e.c);
    if (e.origin != 0) args.Set("origin", PackedAddressToString(e.origin));
    if (!e.detail.empty()) args.Set("detail", e.detail);
    inst.Set("args", std::move(args));
    trace_events.Append(std::move(inst));
  }

  for (const Pending& p : pending) {
    const Event& e = p.begin;
    json::Value span = json::Value::Object();
    char name[64];
    std::snprintf(name, sizeof(name), "%s %llu:%llu",
                  e.kind == EventKind::kCallIssue ? "call" : "exec",
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    span.Set("name", name);
    span.Set("ph", "X");
    span.Set("ts", static_cast<double>(e.time_ns) / 1000.0);
    // An unclosed span (crashed host) renders as zero-width.
    const int64_t dur = p.closed ? p.end_ns - e.time_ns : 0;
    span.Set("dur", static_cast<double>(dur) / 1000.0);
    span.Set("pid", static_cast<uint64_t>(e.host));
    span.Set("tid", static_cast<int64_t>(tid_of(e.thread)));
    json::Value args = json::Value::Object();
    args.Set("thread", e.thread.ToString());
    args.Set("seq", static_cast<uint64_t>(e.thread_seq));
    if (!p.closed) args.Set("unclosed", true);
    span.Set("args", std::move(args));
    trace_events.Append(std::move(span));
  }

  for (const auto& [host, seen] : hosts_seen) {
    auto it = host_names.find(host);
    if (it == host_names.end()) {
      continue;
    }
    json::Value meta = json::Value::Object();
    meta.Set("name", "process_name");
    meta.Set("ph", "M");
    meta.Set("pid", static_cast<uint64_t>(host));
    meta.Set("tid", 0);
    json::Value args = json::Value::Object();
    args.Set("name", it->second);
    meta.Set("args", std::move(args));
    trace_events.Append(std::move(meta));
  }
  // Thread names: the same logical thread appears on every host it
  // touched, so emit one metadata record per (host, tid) pair in use.
  // For simplicity (and determinism) name the tid lanes per host 0.
  for (size_t i = 0; i < tid_threads.size(); ++i) {
    for (const auto& [host, seen] : hosts_seen) {
      json::Value meta = json::Value::Object();
      meta.Set("name", "thread_name");
      meta.Set("ph", "M");
      meta.Set("pid", static_cast<uint64_t>(host));
      meta.Set("tid", static_cast<int64_t>(i) + 1);
      json::Value args = json::Value::Object();
      args.Set("name", tid_threads[i].ToString());
      meta.Set("args", std::move(args));
      trace_events.Append(std::move(meta));
    }
  }

  json::Value root = json::Value::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", "ms");
  return root.Dump();
}

circus::Status WriteStringToFile(const std::string& path,
                                 const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return circus::Status(circus::ErrorCode::kUnavailable,
                          "cannot open " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return circus::Status(circus::ErrorCode::kUnavailable,
                          "short write to " + path);
  }
  return circus::Status::Ok();
}

}  // namespace circus::obs
