// Open-loop load generator for the decision service.
//
// One thread drives a handful of client links (svc/wire Submit over
// rt::UdpLink, link ids n .. n+links-1). Request i is due at
// start + i / rate whatever happened to earlier requests; it goes out on
// link i % links to server i % n, so every server gets load and each
// link keeps several req_seqs outstanding. A request unanswered for
// resubmit_ms is re-sent to the next server under a fresh req_seq (the
// servers remember one served req_seq per link, so an old one could be
// dropped as a duplicate); the first reply to any of its req_seqs
// answers it. Latency runs from the due time, not the send time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct GenConfig {
  int n = 5;
  int links = 4;
  int total_slots = 4;  ///< servers' svc_client_slots
  std::uint16_t base_port = 0;
  double rate = 1000;  ///< requests per second
  double start_ms = 0;      ///< due time of request 0 (now_ms timeline)
  double stop_submit_ms = 0;  ///< no request is due at or after this
  double end_ms = 0;          ///< stop waiting for replies
  double resubmit_ms = 300;
  std::uint64_t seed = 1;
  /// Stop at the first reply (set-up probes), raising `first_reply`.
  bool stop_on_first_reply = false;
  std::atomic<bool>* first_reply = nullptr;
  /// Called before request i is first sent (harness self-test: an
  /// injected stall).
  std::function<void(std::uint64_t)> before_send;
};

struct Request {
  double due = 0;
  double sent = -1;       ///< first transmission
  double last_sent = -1;  ///< latest (re)transmission
  double reply = -1;      ///< first reply received, -1 if none
  std::int64_t value = 0;
  std::uint64_t instance = 0;
  std::int64_t decision = 0;
  int replier = -1;  ///< server whose reply answered it
  int attempts = 0;
};

struct GenResult {
  bool ok = false;  ///< every link bound
  std::vector<Request> reqs;
  double first_reply_ms = -1;
  std::uint64_t resubmits = 0;
  int nice = 0;  ///< the generator thread's niceness while it ran
};

GenResult run_generator(const GenConfig& cfg);

}  // namespace perfbench
