// Message dispatch by exact-type kind (sim::msg_cast): for one instance
// of every message type the library dispatches on — plus an RB envelope
// wrapping a payload and a plain Message with no kind — msg_cast<T>
// answers exactly what dynamic_cast<const T*> answers, for every target
// type the library casts to. Also pins the 16-byte Message header. (Two
// payload-free messages private to .cpp files, the rt link's stand-in
// datagram and the phibar workload's beat, are never cast and are not
// reachable from here.)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/add_sx_phiy_mp.h"
#include "core/consensus.h"
#include "core/kset_agreement.h"
#include "core/kset_diamond_s.h"
#include "core/lower_wheel.h"
#include "core/upper_wheel.h"
#include "sim/message.h"
#include "sim/reliable_broadcast.h"

namespace saf {
namespace {

/// Derives from Message directly, as test-local messages do: no kind.
struct PlainMsg final : sim::Message {
  std::string_view tag() const override { return "plain"; }
};

template <class... Ts>
struct TypeList {};

/// Every type the library's dispatch sites cast to.
using Targets =
    TypeList<core::Phase1Msg, core::Phase2Msg, core::DecisionMsg,
             sim::RbEnvelope, sim::RbAckMsg, core::XMoveMsg, core::InquiryMsg,
             core::ResponseMsg, core::LMoveMsg, core::KCoordEstMsg,
             core::KEchoMsg, core::KDecisionMsg, core::CoordMsg,
             core::EchoMsg, core::ConsensusDecisionMsg, core::HeartbeatMsg>;

/// Casts `m` to each target both ways, expects the same answer, and
/// returns how many targets matched.
template <class... Ts>
int cast_to_each(const sim::Message& m, TypeList<Ts...>) {
  int matches = 0;
  (
      [&] {
        const Ts* by_kind = sim::msg_cast<Ts>(m);
        EXPECT_EQ(by_kind, dynamic_cast<const Ts*>(&m))
            << "message " << m.tag() << " as " << typeid(Ts).name();
        matches += by_kind != nullptr ? 1 : 0;
      }(),
      ...);
  return matches;
}

std::vector<std::unique_ptr<sim::Message>> one_of_each() {
  std::vector<std::unique_ptr<sim::Message>> out;
  out.push_back(std::make_unique<core::Phase1Msg>(1, ProcSet{0, 2}, 7, 3));
  out.push_back(std::make_unique<core::Phase2Msg>(1, 7, 3));
  out.push_back(std::make_unique<core::DecisionMsg>(7, 3));
  auto env = std::make_unique<sim::RbEnvelope>();
  env->origin = 1;
  env->origin_seq = 4;
  env->inner = out[2].get();
  out.push_back(std::move(env));
  out.push_back(std::make_unique<sim::RbAckMsg>());
  out.push_back(std::make_unique<core::XMoveMsg>(1, ProcSet{1, 3}));
  out.push_back(std::make_unique<core::InquiryMsg>(5));
  out.push_back(std::make_unique<core::ResponseMsg>(5, 2));
  out.push_back(std::make_unique<core::LMoveMsg>(ProcSet{1}, ProcSet{1, 2}));
  out.push_back(std::make_unique<core::KCoordEstMsg>(2, 9));
  out.push_back(std::make_unique<core::KEchoMsg>(2, 9));
  out.push_back(std::make_unique<core::KDecisionMsg>(9));
  out.push_back(std::make_unique<core::CoordMsg>(2, 9));
  out.push_back(std::make_unique<core::EchoMsg>(2, 9));
  out.push_back(std::make_unique<core::ConsensusDecisionMsg>(9));
  out.push_back(std::make_unique<core::HeartbeatMsg>(11, ProcSet{0}));
  out.push_back(std::make_unique<PlainMsg>());
  return out;
}

TEST(MessageKind, MsgCastAgreesWithDynamicCastOnEveryPair) {
  const auto msgs = one_of_each();
  int matches = 0;
  for (const auto& m : msgs) matches += cast_to_each(*m, Targets{});
  // Each library message matches its own type only (so the kinds are
  // distinct); the plain one matches none, the envelope not its payload.
  EXPECT_EQ(matches, static_cast<int>(msgs.size()) - 1);
}

TEST(MessageKind, HeaderStaysSixteenBytes) {
  EXPECT_EQ(sizeof(sim::Message), 16u);
  // The kind adds no data to a message type.
  EXPECT_EQ(sizeof(sim::MessageOf<core::Phase2Msg>), sizeof(sim::Message));
}

}  // namespace
}  // namespace saf
