// `circus wire`: decodes the packet events in trace shards and audits
// them against the Section 4.2 paired-message protocol rules.
//
// With --annotate, every "call" span of a `circus merge` timeline gains
// wire_packets / wire_bytes / wire_data / wire_retransmits / wire_acks /
// wire_probes args counting the packet sends inside its time window.
// Shards come from `circus node` (trace_dir=) or from any ShardWriter on a
// World's bus; a shard the writer dropped lines from is audited as
// incomplete. The audit report goes to stdout. Exit codes: 0 clean, 1
// the auditor found protocol violations, 2 usage/input error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/msg/paired_endpoint.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/shard.h"
#include "src/obs/wire.h"
#include "src/rt/cli.h"

namespace circus::rt {
namespace {

// One classified send event, for span annotation.
struct SendSample {
  int64_t time_ns = 0;
  uint64_t bytes = 0;
  bool data = false;
  bool retransmit = false;
  bool ack = false;
  bool probe = false;
};

std::vector<SendSample> ClassifySends(
    const std::vector<obs::wire::WireSegment>& decoded) {
  std::vector<SendSample> sends;
  std::set<std::tuple<net::NetAddress, net::NetAddress, int, uint32_t,
                      uint8_t>>
      seen;
  for (const obs::wire::WireSegment& ws : decoded) {
    if (!ws.send) {
      continue;
    }
    SendSample s;
    s.time_ns = ws.time_ns;
    s.bytes = ws.bytes;
    if (ws.segment.ack) {
      s.ack = true;
    } else if (ws.segment.is_probe()) {
      s.probe = true;
    } else {
      const bool first =
          seen.insert({ws.node, ws.remote, static_cast<int>(ws.segment.type),
                       ws.segment.call_number, ws.segment.segment_number})
              .second;
      s.data = first;
      s.retransmit = !first;
    }
    sends.push_back(s);
  }
  std::sort(sends.begin(), sends.end(),
            [](const SendSample& a, const SendSample& b) {
              return a.time_ns < b.time_ns;
            });
  return sends;
}

// Rebuilds one "call" span event with wire-cost args appended. The
// event schema is our own exporter's (obs::ToChromeTrace), so copying
// the known keys is lossless.
obs::json::Value AnnotateSpan(const obs::json::Value& event,
                              const std::vector<SendSample>& sends) {
  const obs::json::Value* ts = event.Find("ts");
  const obs::json::Value* dur = event.Find("dur");
  obs::json::Value out = obs::json::Value::Object();
  for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid"}) {
    if (const obs::json::Value* v = event.Find(key)) {
      out.Set(key, *v);
    }
  }
  obs::json::Value args = obs::json::Value::Object();
  if (const obs::json::Value* a = event.Find("args")) {
    args = *a;
  }
  uint64_t packets = 0, bytes = 0, data = 0, retx = 0, acks = 0, probes = 0;
  if (ts != nullptr && dur != nullptr) {
    const int64_t begin_ns = static_cast<int64_t>(ts->as_double() * 1000.0);
    const int64_t end_ns =
        begin_ns + static_cast<int64_t>(dur->as_double() * 1000.0);
    auto it = std::lower_bound(sends.begin(), sends.end(), begin_ns,
                               [](const SendSample& s, int64_t t) {
                                 return s.time_ns < t;
                               });
    for (; it != sends.end() && it->time_ns <= end_ns; ++it) {
      ++packets;
      bytes += it->bytes;
      data += it->data ? 1 : 0;
      retx += it->retransmit ? 1 : 0;
      acks += it->ack ? 1 : 0;
      probes += it->probe ? 1 : 0;
    }
  }
  args.Set("wire_packets", packets);
  args.Set("wire_bytes", bytes);
  args.Set("wire_data", data);
  args.Set("wire_retransmits", retx);
  args.Set("wire_acks", acks);
  args.Set("wire_probes", probes);
  out.Set("args", std::move(args));
  return out;
}

int Annotate(const std::string& in_path, const std::string& out_path,
             const std::vector<SendSample>& sends) {
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "circus wire: cannot open %s\n", in_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  circus::StatusOr<obs::json::Value> parsed = obs::json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "circus wire: %s: %s\n", in_path.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  const obs::json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr ||
      events->type() != obs::json::Value::Type::kArray) {
    std::fprintf(stderr, "circus wire: %s has no traceEvents array\n",
                 in_path.c_str());
    return 2;
  }
  obs::json::Value out_events = obs::json::Value::Array();
  size_t annotated = 0;
  for (const obs::json::Value& event : events->items()) {
    const obs::json::Value* ph = event.Find("ph");
    const obs::json::Value* name = event.Find("name");
    const bool call_span =
        ph != nullptr && ph->as_string() == "X" && name != nullptr &&
        name->as_string().rfind("call ", 0) == 0;
    if (!call_span) {
      out_events.Append(event);
      continue;
    }
    out_events.Append(AnnotateSpan(event, sends));
    ++annotated;
  }
  obs::json::Value root = obs::json::Value::Object();
  root.Set("traceEvents", std::move(out_events));
  if (const obs::json::Value* unit = parsed->Find("displayTimeUnit")) {
    root.Set("displayTimeUnit", *unit);
  }
  circus::Status written = obs::WriteStringToFile(out_path, root.Dump());
  if (!written.ok()) {
    std::fprintf(stderr, "circus wire: %s\n", written.ToString().c_str());
    return 2;
  }
  std::printf("annotated %zu call span(s) -> %s\n", annotated,
              out_path.c_str());
  return 0;
}

}  // namespace

int cli::Wire(int argc, char** argv) {
  std::vector<std::string> shard_paths;
  std::string annotate_path;
  std::string out_path = "wire.trace.json";
  bool no_conversations = false;
  obs::wire::AuditOptions options =
      obs::wire::AuditOptionsFor(msg::EndpointOptions{});
  const Flag flags[] = {
      {"--member", &options.member_addresses, "addr",
       "troupe member address (enables the Section 4.3.3 check)"},
      {"--annotate", &annotate_path, "merged.json",
       "`circus merge` output whose call spans gain wire-cost args"},
      {"-o", &out_path, "out.json",
       "annotated trace output (default wire.trace.json)"},
      {"--no-conversations", &no_conversations, nullptr,
       "omit the per-conversation rollup lines"},
      {"node.trace.jsonl", &shard_paths, nullptr,
       "trace shards (`circus node` trace_dir= output)"},
  };
  if (!ParseFlags(argc, argv, flags)) {
    return kUsageError;
  }

  std::vector<obs::wire::WireSegment> decoded;
  obs::wire::WireAuditor auditor(options);
  for (const std::string& path : shard_paths) {
    circus::StatusOr<obs::ShardFile> shard = obs::ReadShardFile(path);
    if (!shard.ok()) {
      std::fprintf(stderr, "circus wire: %s: %s\n", path.c_str(),
                   shard.status().ToString().c_str());
      return 2;
    }
    if (!annotate_path.empty()) {
      for (const obs::Event& e : shard->events) {
        if (std::optional<obs::wire::WireSegment> ws =
                obs::wire::DecodePacket(e)) {
          decoded.push_back(*std::move(ws));
        }
      }
    }
    auditor.AddShard(*shard);
  }
  const obs::wire::AuditReport report = auditor.Finish();
  std::fputs(report.Render(/*max_violations=*/50, !no_conversations).c_str(),
             stdout);

  if (!annotate_path.empty()) {
    const int rc = Annotate(annotate_path, out_path, ClassifySends(decoded));
    if (rc != 0) {
      return rc;
    }
  }
  return report.violations.empty() ? 0 : 1;
}

}  // namespace circus::rt
