#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/process.h"
#include "src/model/bus_tap.h"
#include "src/model/history.h"
#include "src/model/recorder.h"
#include "src/net/world.h"
#include "tests/test_util.h"

namespace circus::model {
namespace {

using circus::Bytes;
using circus::BytesFromString;

// Builds the canonical example history:
//   call A.1           (root)
//     call B.1
//     ret  B.1
//     call B.2
//       call C.1
//       ret  C.1
//     ret  B.2
//   ret  A.1
EventSequence ExampleHistory() {
  EventSequence h;
  h.Append(MakeCall(0xA, 1));
  h.Append(MakeCall(0xB, 1));
  h.Append(MakeReturn(0xB, 1));
  h.Append(MakeCall(0xB, 2));
  h.Append(MakeCall(0xC, 1));
  h.Append(MakeReturn(0xC, 1));
  h.Append(MakeReturn(0xB, 2));
  h.Append(MakeReturn(0xA, 1));
  return h;
}

// ------------------------------------------------- Definition 3.1 ------

TEST(HistoryTest, WholeExampleIsBalanced) {
  EXPECT_TRUE(ExampleHistory().IsBalanced());
}

TEST(HistoryTest, SubIntervalsBalancedExactlyWhenDefinitionSays) {
  EventSequence h = ExampleHistory();
  EXPECT_TRUE(h.IsBalancedInterval(1, 2));   // <call B.1, ret B.1>
  EXPECT_TRUE(h.IsBalancedInterval(3, 6));   // B.2 with nested C.1
  EXPECT_TRUE(h.IsBalancedInterval(4, 5));   // the nested C.1
  EXPECT_FALSE(h.IsBalancedInterval(0, 6));  // missing the final return
  EXPECT_FALSE(h.IsBalancedInterval(2, 3));  // <ret, call>
  EXPECT_FALSE(h.IsBalancedInterval(1, 4));  // crosses interval borders
  // Two adjacent balanced intervals are NOT one balanced interval
  // (Definition 3.1 requires c...r to be one call/return pair).
  EXPECT_FALSE(h.IsBalancedInterval(1, 6));
}

TEST(HistoryTest, MismatchedProcedureIsNotBalanced) {
  EventSequence h;
  h.Append(MakeCall(0xA, 1));
  h.Append(MakeReturn(0xA, 2));  // returns from a different procedure
  EXPECT_FALSE(h.IsBalanced());
}

// ------------------------------------------------- Definition 3.2 ------

TEST(HistoryTest, ValidThreadHistory) {
  EXPECT_TRUE(ExampleHistory().IsValidThreadHistory());
}

TEST(HistoryTest, PrefixOfHistoryIsValid) {
  EventSequence h;
  h.Append(MakeCall(0xA, 1));
  h.Append(MakeCall(0xB, 1));  // still executing
  EXPECT_TRUE(h.IsValidThreadHistory());
  EXPECT_FALSE(h.IsBalanced());
}

TEST(HistoryTest, ReturnWithoutCallIsInvalid) {
  EventSequence h;
  h.Append(MakeReturn(0xA, 1));
  EXPECT_FALSE(h.IsValidThreadHistory());
  EventSequence h2;
  h2.Append(MakeCall(0xA, 1));
  h2.Append(MakeReturn(0xA, 1));
  h2.Append(MakeReturn(0xA, 1));  // second return has no call
  EXPECT_FALSE(h2.IsValidThreadHistory());
}

// ------------------------------------------------- Definition 3.3 ------

TEST(HistoryTest, CallStackAndDepth) {
  EventSequence h = ExampleHistory();
  // At the nested call C.1 (index 4): stack is A.1, B.2, C.1.
  EXPECT_EQ(h.CallStack(4), (std::vector<size_t>{0, 3, 4}));
  EXPECT_EQ(h.Depth(4), 3u);
  // At the first return (index 2): only the root remains open.
  EXPECT_EQ(h.CallStack(2), (std::vector<size_t>{0}));
  // After everything returns: empty.
  EXPECT_TRUE(h.CallStack(7).empty());
}

TEST(HistoryTest, ReturnOfFindsMatch) {
  EventSequence h = ExampleHistory();
  EXPECT_EQ(h.ReturnOf(0), 7u);
  EXPECT_EQ(h.ReturnOf(3), 6u);
  EXPECT_EQ(h.ReturnOf(4), 5u);
  EventSequence open;
  open.Append(MakeCall(1, 1));
  EXPECT_FALSE(open.ReturnOf(0).has_value());
}

// --------------------------------------------------- Theorem 3.4 -------

TEST(HistoryTest, DecompositionOfCallEvent) {
  EventSequence h = ExampleHistory();
  // H_{<= call B.2 (index 3)}: c = A.1 (index 0), B_1 = [1,2].
  StatusOr<EventSequence::Decomposition> d = h.Decompose(3);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->c, 0u);
  ASSERT_EQ(d->balanced.size(), 1u);
  EXPECT_EQ(d->balanced[0], (std::pair<size_t, size_t>{1, 2}));
}

TEST(HistoryTest, DecompositionOfReturnEvent) {
  EventSequence h = ExampleHistory();
  // H_{<= ret B.2 (index 6)}: c = call B.2 (index 3), B_1 = the nested
  // C.1 interval [4,5].
  StatusOr<EventSequence::Decomposition> d = h.Decompose(6);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->c, 3u);
  ASSERT_EQ(d->balanced.size(), 1u);
  EXPECT_EQ(d->balanced[0], (std::pair<size_t, size_t>{4, 5}));
  // The final return decomposes against the root with two balanced
  // intervals between them.
  StatusOr<EventSequence::Decomposition> root = h.Decompose(7);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->c, 0u);
  EXPECT_EQ(root->balanced.size(), 2u);
}

// ------------------------------------------------- restriction ---------

TEST(HistoryTest, RestrictionToModule) {
  EventSequence h = ExampleHistory();
  EventSequence b = h.RestrictToModule(0xB);
  ASSERT_EQ(b.size(), 4u);
  // The restriction of a balanced history to a module is a
  // concatenation of balanced intervals (one per execution in M), not
  // necessarily a single interval.
  EXPECT_FALSE(b.IsBalanced());
  EXPECT_TRUE(b.IsBalancedConcatenation());
  EventSequence c = h.RestrictToModule(0xC);
  EXPECT_EQ(c.size(), 2u);
}

// ------------------------------------------------- comparison ----------

TEST(HistoryTest, SameBehaviourIgnoresIds) {
  EventSequence a = ExampleHistory();
  EventSequence b = ExampleHistory();
  EXPECT_TRUE(a.SameBehaviour(b));
  EXPECT_FALSE(a.FirstDivergence(b).has_value());
}

TEST(HistoryTest, FirstDivergenceFindsTheSpot) {
  EventSequence a = ExampleHistory();
  EventSequence b;
  b.Append(MakeCall(0xA, 1));
  b.Append(MakeCall(0xB, 1));
  b.Append(MakeReturn(0xB, 1, BytesFromString("different")));
  std::optional<size_t> d = a.FirstDivergence(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2u);
}

// ------------------------------------------------- recorders -----------

TEST(RecorderTest, IdenticalRecordersCompareEqual) {
  TraceRecorder a, b;
  for (TraceRecorder* r : {&a, &b}) {
    r->Record("t1", MakeCall(1, 0, BytesFromString("x")));
    r->Record("t1", MakeReturn(1, 0, BytesFromString("y")));
  }
  EXPECT_FALSE(CompareRecorders({&a, &b}).has_value());
}

TEST(RecorderTest, DivergentValuesDetected) {
  TraceRecorder a, b;
  a.Record("t1", MakeCall(1, 0, BytesFromString("x")));
  b.Record("t1", MakeCall(1, 0, BytesFromString("DIFFERENT")));
  std::optional<TraceDivergence> d = CompareRecorders({&a, &b});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->thread_key, "t1");
  EXPECT_EQ(d->index, 0u);
}

TEST(RecorderTest, PrefixToleratedByDefaultNotWhenStrict) {
  TraceRecorder a, b;
  a.Record("t1", MakeCall(1, 0));
  a.Record("t1", MakeReturn(1, 0));
  b.Record("t1", MakeCall(1, 0));  // crashed before returning
  EXPECT_FALSE(CompareRecorders({&a, &b}, /*allow_prefix=*/true)
                   .has_value());
  EXPECT_TRUE(CompareRecorders({&a, &b}, /*allow_prefix=*/false)
                  .has_value());
}

// -------------------------------------- end-to-end with RpcProcess -----

// Routes the process's call events (its per-thread history) into
// `recorder`, keyed by the process address the events carry as origin.
void AttachRecorder(BusRecorderTap* tap, const core::RpcProcess& process,
                    TraceRecorder* recorder) {
  const net::NetAddress address = process.process_address();
  tap->Attach(obs::PackAddress(address.host, address.port), recorder);
}

class TraceIntegrationTest : public ::testing::Test {
 protected:
  TraceIntegrationTest()
      : world_(81, sim::SyscallCostModel::Free()) {}
  net::World world_;
};

TEST_F(TraceIntegrationTest, DeterministicTroupeMembersRecordIdenticalHistories) {
  // A 3-member troupe whose procedure makes a nested call to a backend;
  // each member records its history; the traces must agree event for
  // event (the Section 3.5.2 invocation-tree argument).
  core::Troupe backend;
  backend.id = core::TroupeId{600};
  sim::Host* backend_host = world_.AddHost("backend");
  core::RpcProcess backend_process(&world_.network(), backend_host, 9100);
  const core::ModuleNumber backend_module =
      backend_process.ExportModule("store");
  backend_process.ExportProcedure(
      backend_module, 0,
      [](core::ServerCallContext&,
         const Bytes& args) -> sim::Task<StatusOr<Bytes>> {
        co_return args;
      });
  backend_process.SetTroupeId(backend.id);
  backend.members.push_back(
      backend_process.module_address(backend_module));

  core::Troupe front;
  front.id = core::TroupeId{601};
  std::vector<std::unique_ptr<core::RpcProcess>> members;
  std::vector<std::unique_ptr<TraceRecorder>> recorders;
  BusRecorderTap tap(&world_.bus());
  for (int i = 0; i < 3; ++i) {
    sim::Host* host = world_.AddHost("front" + std::to_string(i));
    auto process =
        std::make_unique<core::RpcProcess>(&world_.network(), host, 9000);
    auto recorder = std::make_unique<TraceRecorder>();
    AttachRecorder(&tap, *process, recorder.get());
    const core::ModuleNumber module = process->ExportModule("front");
    const core::Troupe backend_copy = backend;
    process->ExportProcedure(
        module, 0,
        [backend_copy](core::ServerCallContext& ctx,
                       const Bytes& args) -> sim::Task<StatusOr<Bytes>> {
          // Nested call: recorded between this call's events.
          co_return co_await ctx.Call(backend_copy, 0, 0, args);
        });
    process->SetTroupeId(front.id);
    front.members.push_back(process->module_address(module));
    members.push_back(std::move(process));
    recorders.push_back(std::move(recorder));
  }

  sim::Host* client_host = world_.AddHost("client");
  core::RpcProcess client(&world_.network(), client_host, 8000);
  world_.executor().Spawn(
      [](core::RpcProcess* c, core::Troupe t) -> sim::Task<void> {
        const core::ThreadId thread = c->NewRootThread();
        for (int i = 0; i < 3; ++i) {
          StatusOr<Bytes> r =
              co_await c->Call(thread, t, 0, 0, BytesFromString("req"));
          CIRCUS_CHECK(r.ok());
        }
      }(&client, front));
  world_.RunFor(sim::Duration::Seconds(30));

  std::vector<const TraceRecorder*> views;
  for (auto& r : recorders) {
    views.push_back(r.get());
  }
  std::optional<TraceDivergence> divergence = CompareRecorders(views);
  EXPECT_FALSE(divergence.has_value())
      << (divergence.has_value() ? divergence->description : "");
  // Each member recorded 3 executions x (call + nested call + nested
  // return + return) = 12 events on the client's thread.
  EXPECT_EQ(recorders[0]->total_events(), 12u);
  // And the recorded sequence is a valid thread history per Def. 3.2.
  for (const std::string& thread : recorders[0]->Threads()) {
    EXPECT_TRUE(recorders[0]->TraceOf(thread)->IsValidThreadHistory());
    // Three separate executions: a concatenation of three balanced
    // intervals.
    EXPECT_TRUE(
        recorders[0]->TraceOf(thread)->IsBalancedConcatenation());
  }
}

TEST_F(TraceIntegrationTest, NondeterministicMemberIsCaught) {
  core::Troupe troupe;
  troupe.id = core::TroupeId{602};
  std::vector<std::unique_ptr<core::RpcProcess>> members;
  std::vector<std::unique_ptr<TraceRecorder>> recorders;
  BusRecorderTap tap(&world_.bus());
  for (int i = 0; i < 2; ++i) {
    sim::Host* host = world_.AddHost("m" + std::to_string(i));
    auto process =
        std::make_unique<core::RpcProcess>(&world_.network(), host, 9000);
    auto recorder = std::make_unique<TraceRecorder>();
    AttachRecorder(&tap, *process, recorder.get());
    const core::ModuleNumber module = process->ExportModule("rngsvc");
    const int member = i;
    process->ExportProcedure(
        module, 0,
        [member](core::ServerCallContext&,
                 const Bytes&) -> sim::Task<StatusOr<Bytes>> {
          // A nondeterministic module: the reply depends on which
          // replica we are (e.g. reading a local clock).
          co_return BytesFromString("member" + std::to_string(member));
        });
    process->SetTroupeId(troupe.id);
    troupe.members.push_back(process->module_address(module));
    members.push_back(std::move(process));
    recorders.push_back(std::move(recorder));
  }
  sim::Host* client_host = world_.AddHost("client");
  core::RpcProcess client(&world_.network(), client_host, 8000);
  world_.executor().Spawn(
      [](core::RpcProcess* c, core::Troupe t) -> sim::Task<void> {
        core::CallOptions opts;
        opts.collation = core::Collation::kFirstCome;  // masks the skew
        co_await c->Call(c->NewRootThread(), t, 0, 0, {}, opts);
      }(&client, troupe));
  world_.RunFor(sim::Duration::Seconds(30));

  std::optional<TraceDivergence> divergence =
      CompareRecorders({recorders[0].get(), recorders[1].get()});
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->index, 1u);  // same call, divergent return
}

}  // namespace
}  // namespace circus::model
