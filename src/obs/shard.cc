#include "src/obs/shard.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/endpoint.h"
#include "src/common/hexdump.h"
#include "src/obs/export.h"

namespace circus::obs {

namespace {

constexpr int kShardVersion = 1;

// "10.0.0.3:9000" -> packed (host << 16 | port); 0 when malformed.
uint64_t ParsePackedAddress(const std::string& text) {
  uint32_t host = 0;
  uint16_t port = 0;
  return ParseIpv4Endpoint(text, &host, &port) ? PackAddress(host, port) : 0;
}

json::Value DropMarker(uint64_t count) {
  json::Value obj = json::Value::Object();
  obj.Set("shard_drop", count);
  return obj;
}

}  // namespace

json::Value ShardInfo::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("shard", "circus-trace");
  obj.Set("version", kShardVersion);
  obj.Set("node", node);
  obj.Set("role", role);
  obj.Set("addr", address);
  obj.Set("incarnation", incarnation);
  obj.Set("clock", clock);
  return obj;
}

ShardWriter::ShardWriter(std::string path, ShardInfo info, size_t capacity)
    : path_(std::move(path)), info_(std::move(info)), capacity_(capacity) {
  if (path_.empty()) {
    return;
  }
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    header_write_failed_ = true;
    return;
  }
  const std::string header = info_.ToJson().Dump() + "\n";
  if (std::fwrite(header.data(), 1, header.size(), file_) !=
      header.size()) {
    header_write_failed_ = true;
  }
  std::fflush(file_);
}

ShardWriter::~ShardWriter() {
  Detach();
  Flush();
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void ShardWriter::Attach(EventBus* bus, uint32_t host_filter) {
  Detach();
  bus_ = bus;
  host_filter_ = host_filter;
  subscriber_id_ =
      bus_->Subscribe([this](const Event& e) { Observe(e); });
}

void ShardWriter::Detach() {
  if (bus_ != nullptr) {
    bus_->Unsubscribe(subscriber_id_);
    bus_ = nullptr;
  }
}

void ShardWriter::Observe(const Event& event) {
  if (host_filter_ != 0 && event.host != host_filter_) {
    return;
  }
  ++observed_;
  if (!IsPacketEvent(event.kind)) {
    recent_.push_back(event);
    while (recent_.size() > capacity_) {
      recent_.pop_front();
    }
  }
  if (file_ == nullptr) {
    return;
  }
  pending_lines_.push_back(EventToJson(event).Dump());
  while (pending_lines_.size() > capacity_) {
    pending_lines_.pop_front();
    ++dropped_;
    ++dropped_unreported_;
  }
}

circus::Status ShardWriter::Flush() {
  if (file_ == nullptr) {
    return path_.empty()
               ? circus::Status::Ok()
               : circus::Status(circus::ErrorCode::kUnavailable,
                                "shard file not open: " + path_);
  }
  ++flushes_;
  if (dropped_unreported_ != 0) {
    pending_lines_.push_front(DropMarker(dropped_unreported_).Dump());
    dropped_unreported_ = 0;
  }
  while (!pending_lines_.empty()) {
    const std::string& line = pending_lines_.front();
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fputc('\n', file_) == EOF) {
      ++flush_failures_;
      return circus::Status(circus::ErrorCode::kUnavailable,
                            "short write to shard " + path_);
    }
    pending_lines_.pop_front();
  }
  if (std::fflush(file_) != 0) {
    ++flush_failures_;
    return circus::Status(circus::ErrorCode::kUnavailable,
                          "fflush failed for shard " + path_);
  }
  return circus::Status::Ok();
}

std::vector<Event> ShardWriter::Recent() const {
  return std::vector<Event>(recent_.begin(), recent_.end());
}

bool EventFromJson(const json::Value& value, Event* out) {
  if (value.type() != json::Value::Type::kObject) {
    return false;
  }
  const json::Value* kind = value.Find("kind");
  const json::Value* t_ns = value.Find("t_ns");
  if (kind == nullptr || t_ns == nullptr ||
      kind->type() != json::Value::Type::kString) {
    return false;
  }
  Event e;
  if (!EventKindFromName(kind->as_string(), &e.kind)) {
    return false;
  }
  e.time_ns = t_ns->AsI64();
  if (const json::Value* host = value.Find("host")) {
    e.host = static_cast<uint32_t>(host->AsU64());
  }
  if (const json::Value* inc = value.Find("inc")) {
    e.incarnation = inc->AsU64();
  }
  if (const json::Value* origin = value.Find("origin");
      origin != nullptr && origin->type() == json::Value::Type::kString) {
    e.origin = ParsePackedAddress(origin->as_string());
  }
  if (const json::Value* thread = value.Find("thread");
      thread != nullptr && thread->type() == json::Value::Type::kString) {
    unsigned machine = 0, port = 0, local = 0;
    if (std::sscanf(thread->as_string().c_str(), "thread:%x:%u:%u",
                    &machine, &port, &local) == 3) {
      e.thread.machine = machine;
      e.thread.port = static_cast<uint16_t>(port);
      e.thread.local = static_cast<uint16_t>(local);
    }
  }
  if (const json::Value* seq = value.Find("seq")) {
    e.thread_seq = static_cast<uint32_t>(seq->AsU64());
  }
  if (const json::Value* a = value.Find("a")) e.a = a->AsU64();
  if (const json::Value* b = value.Find("b")) e.b = b->AsU64();
  if (const json::Value* c = value.Find("c")) e.c = c->AsU64();
  if (const json::Value* detail = value.Find("detail");
      detail != nullptr && detail->type() == json::Value::Type::kString) {
    e.detail = detail->as_string();
  }
  // Only packet events carry their payload bytes (hex `data`); other
  // kinds export a size alone, so their payload does not round-trip.
  if (IsPacketEvent(e.kind)) {
    const json::Value* data = value.Find("data");
    if (data == nullptr || data->type() != json::Value::Type::kString ||
        !HexDecode(data->as_string(), &e.payload)) {
      return false;
    }
  }
  *out = std::move(e);
  return true;
}

circus::StatusOr<ShardFile> ReadShardFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return circus::Status(circus::ErrorCode::kNotFound,
                          "cannot open shard: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  ShardFile shard;
  bool have_header = false;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t nl = content.find('\n', pos);
    const bool has_newline = nl != std::string::npos;
    const std::string line =
        content.substr(pos, has_newline ? nl - pos : std::string::npos);
    pos = has_newline ? nl + 1 : content.size();
    if (line.empty()) {
      continue;
    }
    circus::StatusOr<json::Value> parsed = json::Parse(line);
    if (!parsed.ok()) {
      if (!has_newline) {
        // Partial final line: the writer crashed mid-flush. Tolerated.
        shard.truncated_tail = true;
      } else {
        ++shard.skipped_lines;
      }
      continue;
    }
    if (!have_header) {
      const json::Value* magic = parsed->Find("shard");
      if (magic == nullptr ||
          magic->type() != json::Value::Type::kString ||
          magic->as_string() != "circus-trace") {
        return circus::Status(circus::ErrorCode::kInvalidArgument,
                              path + ": not a circus trace shard");
      }
      if (const json::Value* v = parsed->Find("node");
          v != nullptr && v->type() == json::Value::Type::kString) {
        shard.info.node = v->as_string();
      }
      if (const json::Value* v = parsed->Find("role");
          v != nullptr && v->type() == json::Value::Type::kString) {
        shard.info.role = v->as_string();
      }
      if (const json::Value* v = parsed->Find("addr");
          v != nullptr && v->type() == json::Value::Type::kString) {
        shard.info.address = v->as_string();
      }
      if (const json::Value* v = parsed->Find("incarnation")) {
        shard.info.incarnation = v->AsU64();
      }
      if (const json::Value* v = parsed->Find("clock");
          v != nullptr && v->type() == json::Value::Type::kString) {
        shard.info.clock = v->as_string();
      }
      have_header = true;
      continue;
    }
    if (const json::Value* drop = parsed->Find("shard_drop")) {
      shard.dropped += drop->AsU64();
      continue;
    }
    Event e;
    if (EventFromJson(*parsed, &e)) {
      shard.events.push_back(std::move(e));
    } else {
      ++shard.skipped_lines;
    }
  }
  if (!have_header) {
    return circus::Status(circus::ErrorCode::kInvalidArgument,
                          path + ": missing shard header line");
  }
  return shard;
}

}  // namespace circus::obs
