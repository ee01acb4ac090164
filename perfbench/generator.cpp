#include "generator.h"

#include <poll.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness.h"
#include "rt/clock.h"
#include "rt/udp_link.h"
#include "svc/wire.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kGenNice = -10;

struct Link {
  std::unique_ptr<saf::rt::UdpLink> link;
  std::uint64_t next_seq = 0;
  std::vector<std::uint64_t> seq_to_req;  ///< req_seq - 1 -> request index
};

}  // namespace

GenResult run_generator(const GenConfig& cfg) {
  GenResult res;
  // The generator must not queue behind the servers it measures: a late
  // send is charged to the service. Raise this thread's priority where
  // the host allows it; gen.lag_p99_ms reports what remains.
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), kGenNice) == 0) {
    res.nice = kGenNice;
  }
  saf::rt::WallClock wall;
  saf::rt::UdpLinkParams lp;
  lp.endpoints = cfg.n + cfg.total_slots;
  lp.epoch_gating = false;

  std::vector<Link> links(static_cast<std::size_t>(cfg.links));
  std::vector<pollfd> fds;
  res.ok = true;
  for (int j = 0; j < cfg.links; ++j) {
    links[j].link = std::make_unique<saf::rt::UdpLink>(
        cfg.n + j, cfg.n, cfg.base_port, wall, lp);
    if (!links[j].link->ok()) {
      res.ok = false;
      return res;
    }
    fds.push_back(pollfd{links[j].link->fd(), POLLIN, 0});
  }

  const OpenLoop loop(cfg.start_ms, cfg.rate);
  // Requests due strictly before stop_submit_ms.
  const std::uint64_t total =
      cfg.stop_submit_ms > cfg.start_ms
          ? loop.due_count(std::nextafter(cfg.stop_submit_ms, 0.0))
          : 0;
  res.reqs.reserve(static_cast<std::size_t>(total));

  std::vector<std::uint8_t> buf;
  const auto transmit = [&](std::uint64_t idx, double now) {
    Request& r = res.reqs[idx];
    Link& l = links[idx % links.size()];
    saf::svc::Submit sm;
    sm.req_seq = ++l.next_seq;
    sm.value = r.value;
    l.seq_to_req.push_back(idx);
    buf.clear();
    saf::svc::encode_submit(sm, &buf);
    const int server =
        static_cast<int>((idx + static_cast<std::uint64_t>(r.attempts)) %
                         static_cast<std::uint64_t>(cfg.n));
    l.link->send(server, buf);
    if (r.sent < 0) r.sent = now;
    r.last_sent = now;
  };

  std::uint64_t next = 0;         // next request to create
  std::uint64_t oldest_open = 0;  // no request below this is unanswered
  std::uint64_t answered = 0;
  bool stop = false;
  for (;;) {
    double now = now_ms();
    if (now >= cfg.end_ms || stop) break;

    const std::uint64_t due_now = std::min(total, loop.due_count(now));
    while (next < due_now) {
      if (cfg.before_send) cfg.before_send(next);
      Request r;
      r.due = loop.due(next);
      r.value = 1'000'000 +
                static_cast<std::int64_t>(
                    saf::util::derive_seed(cfg.seed, next) % 1'000'000'000);
      res.reqs.push_back(r);
      transmit(next, now_ms());
      ++next;
    }
    for (Link& l : links) l.link->flush();

    // Sleep until the next request is due or a reply arrives.
    double wait_ms = 1.0;
    if (next < total) wait_ms = std::clamp(loop.due(next) - now_ms(), 0.0, 1.0);
    const auto ns = static_cast<long>(wait_ms * 1e6);
    timespec ts{0, ns};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready > 0) {
      for (std::size_t j = 0; j < links.size(); ++j) {
        if ((fds[j].revents & POLLIN) == 0) continue;
        Link& l = links[j];
        l.link->poll([&](saf::ProcessId from, const std::uint8_t* data,
                         std::size_t len) {
          saf::svc::Reply rp;
          if (!saf::svc::decode_reply(data, len, &rp)) return;
          if (rp.req_seq == 0 || rp.req_seq > l.seq_to_req.size()) return;
          Request& r = res.reqs[l.seq_to_req[rp.req_seq - 1]];
          if (r.reply >= 0) return;  // a resubmission's second answer
          r.reply = now_ms();
          r.instance = rp.instance;
          r.decision = rp.decision;
          r.replier = from;
          ++answered;
          if (res.first_reply_ms < 0) {
            res.first_reply_ms = r.reply;
            if (cfg.first_reply != nullptr) cfg.first_reply->store(true);
            if (cfg.stop_on_first_reply) stop = true;
          }
        });
      }
    }
    for (Link& l : links) l.link->maintain();

    now = now_ms();
    while (oldest_open < next && res.reqs[oldest_open].reply >= 0) {
      ++oldest_open;
    }
    for (std::uint64_t i = oldest_open; i < next; ++i) {
      Request& r = res.reqs[i];
      if (r.reply < 0 && now - r.last_sent >= cfg.resubmit_ms) {
        ++r.attempts;
        ++res.resubmits;
        transmit(i, now);
      }
    }
    if (next == total && answered == total) break;
  }
  return res;
}

}  // namespace perfbench
