#include "src/core/process.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/marshal/marshal.h"

namespace circus::core {

using circus::Status;
using sim::Duration;
using sim::Syscall;
using sim::Task;

namespace {

// Decodes a member's return message, taking its buffer, and posts the
// member's reply.
void PostReply(const ModuleAddress& member, circus::Bytes data,
               internal::ReplyStreamState& stream_state) {
  std::optional<ReturnBody> ret = ReturnBody::Decode(std::move(data));
  if (!ret.has_value()) {
    stream_state.channel.Send(Reply{
        member, Status(ErrorCode::kProtocolError, "bad return message")});
    return;
  }
  stream_state.channel.Send(Reply{member, std::move(*ret).ToStatusOr()});
}

}  // namespace

RpcProcess::RpcProcess(net::Fabric* fabric, sim::Host* host,
                       net::Port port, RpcOptions options)
    : fabric_(fabric),
      host_(host),
      options_(options),
      socket_(std::make_unique<net::DatagramSocket>(fabric, host, port)),
      endpoint_(std::make_unique<msg::PairedEndpoint>(socket_.get(),
                                                      options.endpoint)) {
  // Seed message call numbers and local thread numbers from the clock,
  // Birrell & Nelson-style: a process rebooted at the same address must
  // not reuse identifiers its predecessor used, or peers' duplicate-
  // suppression tables would swallow its first calls and stale buffered
  // results would shadow new ones.
  const uint64_t boot_us =
      static_cast<uint64_t>(host->executor().now().nanos() / 1000);
  next_msg_call_ = static_cast<uint32_t>(boot_us % 0x3FFFFFFF) + 1;
  next_local_thread_ = static_cast<uint16_t>(boot_us % 0x7FFF) + 1;
  bus_ = fabric->event_bus();
  if (obs::MetricsRegistry* metrics = fabric->metrics();
      metrics != nullptr) {
    collator_wait_metric_ = metrics->GetHistogram("rpc.collator_wait_ms");
  }
  InstallRuntimeModule();
  host_->Spawn(DispatchLoop());
}

void RpcProcess::PublishCallEvent(obs::EventKind kind, const ThreadId& thread,
                                  uint32_t thread_seq, uint64_t module,
                                  uint64_t procedure,
                                  const circus::Bytes* payload, uint64_t c) {
  if (bus_ == nullptr || !bus_->active()) {
    return;
  }
  obs::Event e;
  e.kind = kind;
  e.host = static_cast<uint32_t>(host_->id());
  const net::NetAddress self = process_address();
  e.origin = obs::PackAddress(self.host, self.port);
  e.thread = obs::ThreadRef{thread.machine, thread.port, thread.local};
  e.thread_seq = thread_seq;
  e.a = module;
  e.b = procedure;
  e.c = c;
  if (payload != nullptr) {
    e.payload = *payload;
  }
  bus_->Publish(std::move(e));
}

void RpcProcess::PublishOutcomeEvent(
    obs::EventKind kind, const ThreadId& thread, uint32_t thread_seq,
    uint64_t module, uint64_t procedure,
    const circus::StatusOr<circus::Bytes>& outcome) {
  if (bus_ == nullptr || !bus_->active()) {
    return;
  }
  if (outcome.ok()) {
    PublishCallEvent(kind, thread, thread_seq, module, procedure, &*outcome,
                     1);
    return;
  }
  const circus::Bytes error =
      circus::BytesFromString("!" + outcome.status().ToString());
  PublishCallEvent(kind, thread, thread_seq, module, procedure, &error, 0);
}

RpcProcess::~RpcProcess() { host_->executor().Cancel(retire_event_); }

// ------------------------------------------------------------- exports --

ModuleNumber RpcProcess::ExportModule(const std::string& interface_name) {
  modules_.push_back(Module{interface_name, {}, nullptr});
  return static_cast<ModuleNumber>(modules_.size() - 1);
}

void RpcProcess::ExportProcedure(ModuleNumber module,
                                 ProcedureNumber procedure,
                                 ProcedureHandler handler) {
  CIRCUS_CHECK(module < modules_.size());
  modules_[module].procedures[procedure] = std::move(handler);
}

void RpcProcess::SetStateProvider(ModuleNumber module,
                                  std::function<circus::Bytes()> provider) {
  CIRCUS_CHECK(module < modules_.size());
  modules_[module].state_provider = std::move(provider);
}

std::optional<ModuleNumber> RpcProcess::FindModule(
    const std::string& name) const {
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i].name == name) {
      return static_cast<ModuleNumber>(i);
    }
  }
  return std::nullopt;
}

void RpcProcess::InstallRuntimeModule() {
  // The runtime module is what the stub compiler would generate for
  // every server: set_troupe_id (Section 6.2), the null call used for
  // garbage-collection probing (Section 6.1), and get_state for bringing
  // new troupe members up to date (Section 6.4.1). It lives at a
  // reserved module number and is dispatched like any other module.
  runtime_procedures_[kSetTroupeId] =
      [this](ServerCallContext&,
             const circus::Bytes& args) -> Task<circus::StatusOr<circus::Bytes>> {
    marshal::Reader r(args);
    const uint64_t id = r.ReadU64();
    if (!r.AtEnd()) {
      co_return Status(ErrorCode::kProtocolError, "bad set_troupe_id args");
    }
    SetTroupeId(TroupeId{id});
    co_return circus::Bytes{};
  };
  runtime_procedures_[kPing] =
      [](ServerCallContext&,
         const circus::Bytes&) -> Task<circus::StatusOr<circus::Bytes>> {
    co_return circus::Bytes{};
  };
  runtime_procedures_[kGetState] =
      [this](ServerCallContext&,
             const circus::Bytes& args) -> Task<circus::StatusOr<circus::Bytes>> {
    marshal::Reader r(args);
    const ModuleNumber module = r.ReadU16();
    if (!r.AtEnd() || module >= modules_.size()) {
      co_return Status(ErrorCode::kInvalidArgument, "bad get_state module");
    }
    if (!modules_[module].state_provider) {
      co_return Status(ErrorCode::kFailedPrecondition,
                       "module has no state provider");
    }
    co_return modules_[module].state_provider();
  };
}

// -------------------------------------------------------------- client --

ThreadId RpcProcess::NewRootThread() {
  const net::NetAddress self = process_address();
  return ThreadId{self.host, self.port, next_local_thread_++};
}

uint32_t RpcProcess::NextThreadSeq(const ThreadId& thread) {
  return ++thread_seq_[thread];
}

Task<circus::StatusOr<circus::Bytes>> RpcProcess::Call(
    ThreadId thread, const Troupe& server, ModuleNumber module,
    ProcedureNumber procedure, circus::Bytes args, CallOptions opts) {
  if (server.members.empty()) {
    co_return Status(ErrorCode::kUnavailable, "troupe has no members");
  }
  // Troupe members must be distinct processes: replicas sharing one
  // process would not have independent failure modes.
  for (size_t i = 0; i < server.members.size(); ++i) {
    for (size_t j = i + 1; j < server.members.size(); ++j) {
      CIRCUS_CHECK_MSG(
          server.members[i].process != server.members[j].process,
          "troupe members must live in distinct processes");
    }
  }
  ++stats_.calls_made;
  // The measurement bracketing of Section 4.4.1 (gettimeofday before and
  // after each call) is part of the runtime cost.
  host_->ChargeSyscallInstant(Syscall::kGetTimeOfDay);

  CallBody body;
  body.thread = thread;
  body.thread_seq = NextThreadSeq(thread);
  body.client_troupe = opts.as_unreplicated_client ? TroupeId{} : troupe_id_;
  body.server_troupe = server.id;
  body.module = module;
  body.procedure = procedure;
  body.arguments = std::move(args);
  // Client-side history: the call event (Section 3.3.1).
  PublishCallEvent(obs::EventKind::kCallIssue, thread, body.thread_seq,
                   module, procedure, &body.arguments,
                   server.members.size());
  // Encoded once; every member's send (and retransmission) reads it.
  const std::shared_ptr<const circus::Bytes> encoded =
      std::make_shared<const circus::Bytes>(body.Encode());

  // Stub/user-mode bookkeeping cost (the user-time column of Table 4.1
  // grows with the troupe size).
  const Duration user_cost =
      options_.client_user_cost_base +
      options_.client_user_cost_per_member *
          static_cast<int64_t>(server.members.size());
  if (user_cost > Duration::Zero()) {
    co_await host_->Compute(user_cost);
  }

  const uint32_t msg_call = NextMessageCallNumber();
  // Marshal + stub bookkeeping is done; the fan-out starts here. The
  // paired-message call number in `c` is the join key that lets the
  // LatencyAttributor charge segment retransmits to this call.
  PublishCallEvent(obs::EventKind::kCallFanout, thread, body.thread_seq,
                   module, procedure, nullptr, msg_call);
  const sim::TimePoint fanout_start = host_->executor().now();
  ReplyStream stream(host_, static_cast<int>(server.members.size()));
  if (opts.multicast_group.has_value()) {
    co_await endpoint_->BlastMulticast(
        net::NetAddress{*opts.multicast_group, 0}, msg::MessageType::kCall,
        msg_call, encoded);
    for (const ModuleAddress& member : server.members) {
      host_->Spawn(AwaitMulticastReply(member, msg_call, encoded,
                                       stream.shared_state()));
    }
  } else {
    for (const ModuleAddress& member : server.members) {
      host_->Spawn(
          CallOneMember(member, msg_call, encoded, stream.shared_state()));
    }
  }

  circus::StatusOr<circus::Bytes> result =
      Status(ErrorCode::kUnavailable, "no collation ran");
  if (opts.watchdog) {
    // First-come with background verification (Section 4.3.4).
    result = co_await FirstComeCollate(stream);
    host_->Spawn(WatchdogTask(stream,
                              result.ok() ? *result : circus::Bytes{},
                              result.ok(), opts.watchdog));
  } else {
    Collator collator =
        opts.custom_collator ? opts.custom_collator
        : opts.minimum_successes > 0
            ? MakeQuorumUnanimousCollator(opts.minimum_successes)
            : BuiltinCollator(
                  opts.collation.value_or(options_.default_collation));
    result = co_await collator(stream);
  }
  // Time from fan-out to collated outcome: the collator-wait latency.
  if (collator_wait_metric_ != nullptr) {
    collator_wait_metric_->Observe(
        static_cast<double>(
            (host_->executor().now() - fanout_start).nanos()) /
        1e6);
  }
  host_->ChargeSyscallInstant(Syscall::kGetTimeOfDay);
  // Client-side history: the matching return event.
  PublishOutcomeEvent(obs::EventKind::kCallCollate, thread, body.thread_seq,
                      module, procedure, result);
  co_return result;
}

Task<void> RpcProcess::CallOneMember(
    ModuleAddress member, uint32_t msg_call,
    std::shared_ptr<const circus::Bytes> encoded,
    std::shared_ptr<internal::ReplyStreamState> stream_state) {
  Status sent = co_await endpoint_->SendMessage(
      member.process, msg::MessageType::kCall, msg_call, std::move(encoded));
  if (!sent.ok()) {
    stream_state->channel.Send(Reply{member, sent});
    co_return;
  }
  circus::StatusOr<msg::Message> m =
      co_await endpoint_->AwaitReturn(member.process, msg_call);
  if (!m.ok()) {
    stream_state->channel.Send(Reply{member, m.status()});
    co_return;
  }
  PostReply(member, std::move(m->data), *stream_state);
}

Task<void> RpcProcess::AwaitMulticastReply(
    ModuleAddress member, uint32_t msg_call,
    std::shared_ptr<const circus::Bytes> encoded,
    std::shared_ptr<internal::ReplyStreamState> stream_state) {
  // Optimistic phase: the single multicast transmission usually reaches
  // the member and its return message doubles as the acknowledgment.
  std::optional<msg::Message> quick = co_await endpoint_->TryAwaitReturn(
      member.process, msg_call, options_.multicast_fallback);
  if (!quick.has_value()) {
    // Fall back to the reliable point-to-point path; the server
    // suppresses the duplicate if the multicast did arrive.
    Status sent = co_await endpoint_->SendMessage(member.process,
                                                  msg::MessageType::kCall,
                                                  msg_call, std::move(encoded));
    if (!sent.ok()) {
      stream_state->channel.Send(Reply{member, sent});
      co_return;
    }
    circus::StatusOr<msg::Message> m =
        co_await endpoint_->AwaitReturn(member.process, msg_call);
    if (!m.ok()) {
      stream_state->channel.Send(Reply{member, m.status()});
      co_return;
    }
    quick = std::move(*m);
  }
  PostReply(member, std::move(quick->data), *stream_state);
}

Task<void> RpcProcess::WatchdogTask(
    ReplyStream stream, circus::Bytes first_value, bool have_first,
    std::function<void(const circus::Status&)> report) {
  // The stream's consumed-count carries over: this continues where the
  // first-come collation stopped.
  bool mismatch = false;
  while (true) {
    std::optional<Reply> r = co_await stream.Next();
    if (!r.has_value()) {
      break;
    }
    if (!r->result.ok()) {
      continue;  // a crashed member is a masked failure, not divergence
    }
    if (!have_first) {
      first_value = std::move(*r->result);
      have_first = true;
      continue;
    }
    if (*r->result != first_value) {
      mismatch = true;
    }
  }
  report(mismatch
             ? Status(ErrorCode::kDisagreement,
                      "watchdog: a slower troupe member returned a "
                      "different result")
             : Status::Ok());
}

// -------------------------------------------------------------- server --

Task<void> RpcProcess::DispatchLoop() {
  while (true) {
    msg::Message m = co_await endpoint_->NextIncomingCall();
    ++stats_.call_messages_received;
    std::optional<CallBody> body = CallBody::Decode(std::move(m.data));
    if (!body.has_value()) {
      CIRCUS_LOG_AT(LogLevel::kDebug, host_->executor().now().nanos())
          << "undecodable call message from " << m.peer.ToString();
      continue;
    }
    // Incarnation check (Section 6.2): a call addressed to a troupe ID we
    // no longer carry means the client's binding cache is stale. An
    // unbound (zero) destination is the binding-agent-free path.
    if (body->server_troupe.bound() && body->server_troupe != troupe_id_) {
      ++stats_.stale_bindings_rejected;
      PublishCallEvent(obs::EventKind::kStaleBindingReject, body->thread,
                       body->thread_seq, body->module, body->procedure,
                       nullptr, 0);
      const std::shared_ptr<const circus::Bytes> stale =
          std::make_shared<const circus::Bytes>(
              ReturnBody::Error(ErrorCode::kStaleBinding,
                                "troupe ID mismatch: rebind required")
                  .Encode());
      host_->Spawn(SendReturnTo(m.peer, m.call_number, stale));
      continue;
    }
    const InboundKey key{body->client_troupe, body->thread,
                         body->thread_seq};
    auto it = inbound_.find(key);
    if (it == inbound_.end()) {
      // First call message of a new inbound call: admitted to dispatch.
      // Time from here to kExecuteBegin is the server-queue stage
      // (argument collation wait + handler scheduling).
      PublishCallEvent(obs::EventKind::kCallAdmit, body->thread,
                       body->thread_seq, body->module, body->procedure,
                       nullptr, m.call_number);
      auto call = std::make_shared<InboundCall>(host_);
      call->received[m.peer] = {m.call_number, std::move(body->arguments)};
      inbound_[key] = call;
      // Only the body's header travels on: its arguments are in
      // `received` now.
      host_->Spawn(HandleInbound(key, call, std::move(*body)));
      continue;
    }
    std::shared_ptr<InboundCall> call = it->second;
    if (call->return_payload != nullptr) {
      // A slow client troupe member's call arrived after execution: the
      // buffered return message makes execution appear instantaneous to
      // it (Section 4.3.4).
      if (!call->replied_to.contains(m.peer)) {
        call->replied_to.insert(m.peer);
        ++stats_.late_members_served;
        PublishCallEvent(obs::EventKind::kLateReplyServed, body->thread,
                         body->thread_seq, body->module, body->procedure,
                         nullptr, 0);
        host_->Spawn(
            SendReturnTo(m.peer, m.call_number, call->return_payload));
      } else if (options_.redeliver_duplicates_bug) {
        // Planted bug: answer the duplicate again, with the buffered
        // return mangled — call-number reuse the wire auditor must flag.
        circus::Bytes mangled = *call->return_payload;
        mangled.push_back(0x5A);
        const std::shared_ptr<const circus::Bytes> payload =
            std::make_shared<const circus::Bytes>(std::move(mangled));
        host_->Spawn(SendReturnTo(m.peer, m.call_number, payload));
      }
      continue;
    }
    call->received[m.peer] = {m.call_number, std::move(body->arguments)};
    call->arrivals.Send(1);
  }
}

Task<void> RpcProcess::SendReturnTo(
    net::NetAddress peer, uint32_t msg_call_number,
    std::shared_ptr<const circus::Bytes> payload) {
  Status s = co_await endpoint_->SendMessage(
      peer, msg::MessageType::kReturn, msg_call_number, std::move(payload));
  if (!s.ok()) {
    CIRCUS_LOG_AT(LogLevel::kDebug, host_->executor().now().nanos())
        << "return to " << peer.ToString() << " undeliverable: "
        << s.ToString();
  }
}

Task<void> RpcProcess::HandleInbound(InboundKey key,
                                     std::shared_ptr<InboundCall> call,
                                     CallBody first_body) {
  // 1. Learn the client troupe membership so we know how many call
  //    messages to expect (Section 4.3.2).
  size_t expected_count = 1;
  if (key.client_troupe.bound() && troupe_resolver_) {
    circus::StatusOr<Troupe> troupe =
        co_await troupe_resolver_(key.client_troupe);
    if (troupe.ok()) {
      expected_count = troupe->members.size();
    }
  }

  // 2. Wait for the call messages per the argument collation policy.
  if (options_.argument_collation != Collation::kFirstCome &&
      expected_count > 1) {
    while (call->received.size() < expected_count) {
      std::optional<int> more = co_await call->arrivals.ReceiveWithTimeout(
          options_.straggler_timeout);
      if (!more.has_value()) {
        // Stragglers presumed crashed; proceed with the available
        // members, as the client half does with crashed servers
        // (Section 4.3.1).
        break;
      }
    }
  }

  // 3. Collate the argument messages.
  ServerCallContext ctx;
  ctx.process = this;
  ctx.thread = key.thread;
  ctx.thread_seq = key.thread_seq;
  ctx.client_troupe = key.client_troupe;
  for (auto& [peer, entry] : call->received) {
    ctx.collected_arguments.emplace_back(peer, std::move(entry.second));
  }
  // The collated arguments: one of the collected buffers.
  const circus::Bytes* arguments = &ctx.collected_arguments.front().second;
  circus::Bytes return_payload;
  bool argument_failure = false;
  if (options_.argument_collation == Collation::kUnanimous &&
      options_.argument_unanimity_check) {
    for (const auto& [peer, argbytes] : ctx.collected_arguments) {
      if (argbytes != *arguments) {
        ++stats_.argument_disagreements;
        return_payload =
            ReturnBody::Error(ErrorCode::kDisagreement,
                              "client troupe members sent different "
                              "arguments")
                .Encode();
        argument_failure = true;
        break;
      }
    }
  } else if (options_.argument_collation == Collation::kMajority) {
    std::map<circus::Bytes, int> votes;
    const int needed = static_cast<int>(expected_count) / 2 + 1;
    bool found = false;
    for (const auto& [peer, argbytes] : ctx.collected_arguments) {
      if (++votes[argbytes] >= needed) {
        arguments = &argbytes;
        found = true;
        break;
      }
    }
    if (!found) {
      ++stats_.argument_disagreements;
      return_payload = ReturnBody::Error(ErrorCode::kNoMajority,
                                         "no argument majority")
                           .Encode();
      argument_failure = true;
    }
  }

  // 4. Execute the procedure exactly once.
  if (!argument_failure) {
    ProcedureHandler* handler = nullptr;
    if (first_body.module == kRuntimeModule) {
      auto pit = runtime_procedures_.find(first_body.procedure);
      if (pit != runtime_procedures_.end()) {
        handler = &pit->second;
      }
    } else if (first_body.module < modules_.size()) {
      auto pit =
          modules_[first_body.module].procedures.find(first_body.procedure);
      if (pit != modules_[first_body.module].procedures.end()) {
        handler = &pit->second;
      }
    } else {
      return_payload =
          ReturnBody::Error(ErrorCode::kStaleBinding,
                            "no such module exported here")
              .Encode();
    }
    if (handler != nullptr) {
      if (options_.server_user_cost > Duration::Zero()) {
        co_await host_->Compute(options_.server_user_cost);
      }
      ++stats_.calls_executed;
      // Adopt the caller's position in the thread's call sequence, so the
      // handler's nested calls continue the thread's numbering instead of
      // restarting from this process's own counter (which would reuse the
      // enclosing call's seq and break cross-host trace correlation).
      // Every replica sees the same inbound seq, so replicas still issue
      // identical nested (thread, seq) pairs for many-to-one collation.
      uint32_t& adopted_seq = thread_seq_[key.thread];
      if (adopted_seq < key.thread_seq) {
        adopted_seq = key.thread_seq;
      }
      // Server-side history: the execution of the call on the adopted
      // thread. Nested calls made by the handler are recorded between
      // this call event and its return event, giving exactly the
      // invocation-tree structure of Section 3.3.1.
      PublishCallEvent(obs::EventKind::kExecuteBegin, key.thread,
                       key.thread_seq, first_body.module,
                       first_body.procedure, arguments,
                       call->received.size());
      circus::StatusOr<circus::Bytes> result =
          co_await (*handler)(ctx, *arguments);
      PublishOutcomeEvent(obs::EventKind::kExecuteEnd, key.thread,
                          key.thread_seq, first_body.module,
                          first_body.procedure, result);
      if (result.ok()) {
        return_payload =
            ReturnBody::Success(std::move(result).value()).Encode();
      } else {
        // The handler's error code travels verbatim in the error result
        // (exception passing through the return message, Section 4.3).
        return_payload = ReturnBody::Error(result.status().code(),
                                           result.status().message())
                             .Encode();
      }
    } else if (return_payload.empty()) {
      return_payload = ReturnBody::Error(ErrorCode::kNotFound,
                                         "no such procedure")
                           .Encode();
    }
  }

  // 5. Send the return message to every client troupe member heard from.
  call->return_payload =
      std::make_shared<const circus::Bytes>(std::move(return_payload));
  for (const auto& [peer, entry] : call->received) {
    if (call->replied_to.insert(peer).second) {
      host_->Spawn(SendReturnTo(peer, entry.first, call->return_payload));
    }
  }

  // 6. Retire the call record after the retention window (late members
  //    arriving within it are served from the buffer by the dispatcher).
  retiring_.emplace_back(host_->executor().now() + options_.inbound_retention,
                         key);
  if (retire_event_ == 0) {
    ArmRetirement();
  }
}

void RpcProcess::ArmRetirement() {
  retire_event_ = host_->executor().ScheduleAt(retiring_.front().first, [this] {
    retire_event_ = 0;
    const sim::TimePoint now = host_->executor().now();
    while (!retiring_.empty() && retiring_.front().first <= now) {
      inbound_.erase(retiring_.front().second);
      retiring_.pop_front();
    }
    if (!retiring_.empty()) {
      ArmRetirement();
    }
  });
}

// ------------------------------------------------- nested calls (ctx) --

Task<circus::StatusOr<circus::Bytes>> ServerCallContext::Call(
    const Troupe& server, ModuleNumber module, ProcedureNumber procedure,
    circus::Bytes args) {
  // The server process adopts the caller's thread ID for the duration of
  // the execution, so nested calls propagate it (Section 3.4.1).
  return process->Call(thread, server, module, procedure, std::move(args));
}

}  // namespace circus::core
