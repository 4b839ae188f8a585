// service_mix: a service::Server (hovald's engine, 2 executor threads) in a
// forked child on a Unix socket, driven by one open-loop generator at a
// fixed offered rate, a stated fraction of the rate this server setup
// saturates at.  Latency is timed from each request's due time.  The
// requests are those the repository's CI daemon smoke serves, in its
// order: a fresh-seed examples/scenarios/ate_good_rounds.json scenario
// (cold: resolve, execute, encode, cache insert — the write path), a
// fresh-seed examples/scenarios/sweep_ate_alpha.json sweep (cold), and a
// repeat of a scenario primed in set-up (a cache hit, the read path).
// Per-job kernel work is small, so time goes to the protocol, frames,
// socket, admission, cache, result JSON and the server's 10 ms completion
// tick.
//
// `--workload service_saturation` (the binary only, not a benchmark
// workload) runs the same request sequence closed-loop with a deep window
// on both connections and reports the completed rate: the saturation rate
// kOfferedRate is a fraction of.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hoval;

namespace {

/// Requests per second this server setup (2 executor threads, 2
/// connections, this request sequence) completed closed-loop, median of
/// five 20 s `service_saturation` runs on a 4-vCPU host.
constexpr double kSaturationRate = 272.65;
/// Offered load: an eighth of the saturation rate, open loop.  At a quarter,
/// queueing under host contention pushed enough cold scenarios past the
/// first 10 ms tick to swing job_tail_ms by 30% between runs (README).
constexpr double kOfferedRate = 0.125 * kSaturationRate;
/// The mix repeats every kBlock requests, in the CI daemon smoke's order:
/// a cold scenario, a cold sweep, a cache hit.
constexpr int kBlock = 3;
/// Specs primed in set-up, repeated as hits.
constexpr int kPrimed = 4;
/// Latency limit behind goodput_per_s.
constexpr double kLimitMs = 50.0;
/// The generator busy-polls for the last stretch before each due time.
constexpr std::int64_t kSpinNs = 300'000;
/// Connections the generator spreads requests over.
constexpr int kConnections = 2;
/// Requests kept outstanding per connection by the saturation probe;
/// below the server's admission limit (64 pending jobs), so none is shed.
constexpr int kSaturationWindow = 16;

/// examples/scenarios/ate_good_rounds.json with another seed.
std::string scenario_text(std::uint64_t seed) {
  std::ostringstream os;
  os << R"({"algorithm": {"name": "ate", "params": {"n": 12, "alpha": 2}},)"
     << R"( "adversary": [{"name": "corrupt", "params": {"alpha": 2}},)"
     << R"( {"name": "good-rounds", "params": {"period": 5}}],)"
     << R"( "values": {"name": "random", "params": {"distinct": 3}},)"
     << R"( "predicates": ["p-alpha", "p-a-live"],)"
     << R"( "campaign": {"runs": 100, "rounds": 40, "seed": )" << seed << "}}";
  return os.str();
}

/// examples/scenarios/sweep_ate_alpha.json with another seed.
std::string sweep_text(std::uint64_t seed) {
  std::ostringstream os;
  os << R"({"scenario": {"algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},)"
     << R"( "adversary": [{"name": "corrupt", "params": {"alpha": 0}},)"
     << R"( {"name": "good-rounds", "params": {"period": 5}}],)"
     << R"( "values": {"name": "random", "params": {"distinct": 3}},)"
     << R"( "predicates": ["p-alpha"],)"
     << R"( "campaign": {"runs": 40, "rounds": 40, "seed": )" << seed << "}},"
     << R"( "axes": [{"path": "adversary.0.params.alpha", "points": [0, 1, 2, 3]}],)"
     << R"( "reseed_per_point": true})";
  return os.str();
}

enum class Kind { kHit, kCold, kSweep };

struct Request {
  Kind kind = Kind::kHit;
  std::string text;  ///< the spec document
  std::string payload;  ///< its submit frame, encoded before the window
  std::int64_t due_ns = 0;   ///< offset from the window start
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t client_ns = 0;  ///< encode_submit + parse_server_message
  int connection = 0;
  bool answered = false;
  bool cache_hit = false;
  std::string result;  ///< compact result JSON as served
};

/// Request `i` of the sequence: its kind from the block pattern, a fresh
/// seed for cold specs, a primed spec drawn by `rng` for hits.
Request make_request(std::uint64_t seed, int i,
                     const std::vector<std::string>& primed_texts, Rng& rng) {
  Request r;
  r.connection = i % kConnections;
  const auto index = static_cast<std::uint64_t>(i);
  switch (i % kBlock) {
    case 0:
      r.kind = Kind::kCold;
      r.text = scenario_text(mix_seed(seed, 3, index));
      break;
    case 1:
      r.kind = Kind::kSweep;
      r.text = sweep_text(mix_seed(seed, 2, index));
      break;
    default:
      r.kind = Kind::kHit;
      r.text = primed_texts[rng.below(primed_texts.size())];
  }
  return r;
}

// --- the server child -----------------------------------------------------

service::Server* g_server = nullptr;

extern "C" void stop_server(int) {
  if (g_server != nullptr) g_server->stop();
}

struct ServerProcess {
  pid_t pid = -1;
  int status_fd = -1;  ///< ready byte, then the exit stats line
  std::string address;
};

/// Forks the server; returns once it is bound and listening.
ServerProcess start_server(int generation) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  ServerProcess server;
  server.address = "./perfbench-" + std::to_string(::getpid()) + "-" +
                   std::to_string(generation) + ".sock";
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(pipe_fds[0]);
    int rc = 0;
    try {
      service::ServerConfig config;
      config.address = server.address;
      config.executor_threads = 2;
      service::Server instance(config);
      g_server = &instance;
      ::signal(SIGTERM, stop_server);
      // A benchmark killed mid-run must not leave its server behind.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() == 1) ::_exit(5);
      const char ready = 'r';
      if (::write(pipe_fds[1], &ready, 1) != 1) ::_exit(3);
      instance.run();
      const service::ServerStats s = instance.stats();
      std::ostringstream os;
      os << s.cache_hits << " " << s.cache_misses << " " << s.jobs_shed << " "
         << s.jobs_failed << "\n";
      const std::string line = os.str();
      if (::write(pipe_fds[1], line.data(), line.size()) < 0) rc = 3;
      g_server = nullptr;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: server: %s\n", e.what());
      rc = 4;
    }
    ::_exit(rc);
  }
  ::close(pipe_fds[1]);
  server.pid = pid;
  server.status_fd = pipe_fds[0];
  char ready = 0;
  if (::read(server.status_fd, &ready, 1) != 1 || ready != 'r')
    throw std::runtime_error("server failed to start");
  return server;
}

struct ServerStatsLine {
  long long hits = 0, misses = 0, shed = 0, failed = 0;
};

/// Stops the server and waits for it; returns its exit stats.
ServerStatsLine stop_server_process(ServerProcess& server) {
  ::kill(server.pid, SIGTERM);
  std::string text;
  char buffer[256];
  for (;;) {
    const ssize_t got = ::read(server.status_fd, buffer, sizeof buffer);
    if (got > 0) {
      text.append(buffer, static_cast<std::size_t>(got));
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  ::close(server.status_fd);
  int status = 0;
  ::waitpid(server.pid, &status, 0);
  ServerStatsLine stats;
  std::istringstream in(text);
  if (!(in >> stats.hits >> stats.misses >> stats.shed >> stats.failed) ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("server exited abnormally");
  return stats;
}

// --- the client side ------------------------------------------------------

struct Connection {
  int fd = -1;
  dispatch::FrameDecoder decoder;
};

void send_frame(Connection& c, const std::string& payload) {
  if (!dispatch::write_frame(c.fd, payload))
    throw std::runtime_error("server connection lost on write");
}

/// Reads what is available on `c` and returns the complete messages.
std::vector<std::string> read_frames(Connection& c) {
  char buffer[65536];
  const ssize_t got = ::read(c.fd, buffer, sizeof buffer);
  if (got < 0 && errno == EINTR) return {};
  if (got <= 0) throw std::runtime_error("server connection closed");
  c.decoder.feed(buffer, static_cast<std::size_t>(got));
  std::vector<std::string> frames;
  while (auto frame = c.decoder.next()) frames.push_back(std::move(*frame));
  return frames;
}

Connection open_connection(const std::string& address) {
  Connection c;
  c.fd = service::connect_socket(address, 5000);
  send_frame(c, service::encode_hello());
  for (;;) {
    for (const std::string& frame : read_frames(c)) {
      if (service::parse_server_message(frame).type !=
          service::ServerMessage::Type::kHello)
        throw std::runtime_error("expected a hello from the server");
      return c;
    }
  }
}

/// Submits every spec on one connection and waits for all results;
/// returns the compact result texts in submission order.
std::vector<std::string> submit_all(Connection& c,
                                    const std::vector<std::string>& texts) {
  for (std::size_t i = 0; i < texts.size(); ++i)
    send_frame(c, service::encode_submit(static_cast<int>(i), false,
                                         Json::parse(texts[i]), false));
  std::vector<std::string> results(texts.size());
  std::size_t answered = 0;
  while (answered < texts.size()) {
    for (const std::string& frame : read_frames(c)) {
      const service::ServerMessage m = service::parse_server_message(frame);
      if (m.type != service::ServerMessage::Type::kResult)
        throw std::runtime_error("priming failed: " + m.what);
      results.at(static_cast<std::size_t>(m.id)) = m.result.dump();
      ++answered;
    }
  }
  return results;
}

}  // namespace

void run_service_mix(const Options& options, Tracer& tracer, Report& report) {
  std::vector<std::string> primed_texts;
  for (int i = 0; i < kPrimed; ++i)
    primed_texts.push_back(scenario_text(mix_seed(options.seed, 1000 + i)));

  // Set-up: fork the server (pool spin-up, bind), connect and shake hands,
  // and prime the cache.  Repeated; the last server stays up.
  ServerProcess server;
  std::vector<Connection> connections;
  std::vector<std::string> primed_results;
  const int setup_repeats = 5;
  const double setup_s = median_setup_s(setup_repeats, [&](int i) {
    server = start_server(i);
    for (int k = 0; k < kConnections; ++k)
      connections.push_back(open_connection(server.address));
    primed_results = submit_all(connections[0], primed_texts);
  }, [&](int) {
    for (Connection& c : connections) ::close(c.fd);
    connections.clear();
    stop_server_process(server);
  });
  report.metric("setup_s", setup_s, "s");

  // The schedule: a Poisson arrival process at the offered rate,
  // conditioned on its count (so every seed offers the same number of
  // requests): that many uniform due times in the window, sorted.  The hit
  // specs are drawn from the seed; the kinds follow the block pattern.
  const auto count = static_cast<std::size_t>(kOfferedRate * options.seconds);
  std::vector<std::int64_t> due(count);
  Rng rng(mix_seed(options.seed, 7));
  for (std::int64_t& d : due)
    d = static_cast<std::int64_t>(rng.uniform() * options.seconds * 1e9);
  std::sort(due.begin(), due.end());
  std::vector<Request> requests;
  for (std::size_t i = 0; i < count; ++i) {
    Request r = make_request(options.seed, static_cast<int>(i), primed_texts, rng);
    r.due_ns = due[i];
    // Encoded ahead, so a request's latency is the socket and the server.
    const Json spec = Json::parse(r.text);
    const std::int64_t t0 = now_ns();
    r.payload = service::encode_submit(static_cast<int>(i), r.kind == Kind::kSweep,
                                       spec, false);
    r.client_ns = now_ns() - t0;
    requests.push_back(std::move(r));
  }

  // The open loop: send each request when due, whatever is outstanding.
  long long shed = 0;
  long long retries = 0;
  std::size_t next = 0;
  std::size_t answered = 0;
  int hits_out = 0;  ///< cache-hit requests sent and not yet answered
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>((options.seconds + 30.0) * 1e9);
  std::vector<pollfd> fds(connections.size());
  while (answered < requests.size()) {
    std::int64_t now = now_ns();
    if (now > deadline) break;
    while (next < requests.size() && start + requests[next].due_ns <= now) {
      Request& r = requests[next];
      send_frame(connections[static_cast<std::size_t>(r.connection)], r.payload);
      r.sent_ns = now_ns() - start;
      if (r.kind == Kind::kHit) ++hits_out;
      ++next;
      now = now_ns();
    }
    // Sleep until kSpinNs before the next due time, then poll without
    // blocking, and never block while a cache hit is out: on a shared VM
    // a wake-up comes ~0.1 ms late, which would otherwise be charged to
    // the latency of every request (a hit takes ~0.3 ms).
    const std::int64_t wait_ns =
        hits_out > 0 ? 0
        : next < requests.size()
            ? start + requests[next].due_ns - now_ns() - kSpinNs
            : 50'000'000;
    timespec timeout{};
    if (wait_ns > 0) {
      timeout.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
    }
    for (std::size_t k = 0; k < connections.size(); ++k)
      fds[k] = pollfd{connections[k].fd, POLLIN, 0};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    for (std::size_t k = 0; k < connections.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (const std::string& frame : read_frames(connections[k])) {
        const std::int64_t received = now_ns() - start;
        const std::int64_t t0 = now_ns();
        const service::ServerMessage m = service::parse_server_message(frame);
        const std::int64_t t1 = now_ns();
        if (m.id < 0 || static_cast<std::size_t>(m.id) >= next)
          throw std::runtime_error("response for an unknown job id");
        Request& r = requests[static_cast<std::size_t>(m.id)];
        r.client_ns += t1 - t0;
        std::string result = m.type == service::ServerMessage::Type::kResult
                                 ? m.result.dump()
                                 : std::string();
        if (m.type == service::ServerMessage::Type::kError && m.retry_after_ms >= 0) {
          // Shed: resubmit the identical spec after the hint (idempotent).
          ++shed;
          ++retries;
          ::usleep(static_cast<useconds_t>(m.retry_after_ms) * 1000);
          send_frame(connections[k],
                     service::encode_submit(m.id, r.kind == Kind::kSweep,
                                            Json::parse(r.text), false));
          continue;
        }
        report.check(m.type == service::ServerMessage::Type::kResult,
                     "request " + std::to_string(m.id) + " failed: " + m.what);
        r.answered = true;
        r.done_ns = received;
        r.cache_hit = m.cache_hit;
        r.result = std::move(result);
        if (r.kind == Kind::kHit) --hits_out;
        ++answered;
        // Odd blocks of the mix are traced, even ones not, so one traced
        // run compares both halves of the same schedule.
        tracer.set_enabled(options.trace && (m.id / kBlock) % 2 == 1);
        tracer.add(r.kind == Kind::kHit ? "hit" : r.kind == Kind::kCold ? "cold" : "sweep",
                   "service", static_cast<std::uint64_t>(m.id),
                   start + r.due_ns, start + r.done_ns);
      }
    }
  }
  // From the window's start to the last answer.
  const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
  for (Connection& c : connections) ::close(c.fd);
  const ServerStatsLine stats = stop_server_process(server);

  // Output checks: every request answered; hits served from the cache
  // with the primed bytes; cold results equal local bytes for the same
  // spec.  Local runs go after the window, on a fresh 2-worker pool.
  Executor local(2);
  std::vector<double> hit_ms;
  std::vector<double> cold_ms;   ///< cold scenarios only
  std::vector<double> sweep_ms;
  double served_s = 0.0;  ///< summed latency of cold scenarios and sweeps
  std::vector<double> late_ms;
  std::vector<double> local_ms;
  std::vector<double> parse_us;
  std::vector<double> resolve_us;
  std::vector<double> encode_us;
  double bytes = 0.0;
  long long hits = 0;
  long long misses = 0;
  long long cold_runs = 0;
  long long runs_traced = 0;
  double served_traced_s = 0.0;
  std::vector<double> client_us;
  int good = 0;
  for (std::size_t i = 0; i < kPrimed; ++i) {
    const std::string expected = campaign_result_to_json(
        run_scenario(ScenarioSpec::from_json_text(primed_texts[i]), local)).dump();
    report.check(primed_results[i] == expected, "primed result differs from local bytes");
  }
  std::map<std::string, std::string> primed_bytes;
  for (std::size_t i = 0; i < kPrimed; ++i) primed_bytes[primed_texts[i]] = primed_results[i];
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    report.check(r.answered, "request " + std::to_string(i) + " was not answered");
    if (!r.answered) continue;
    const double ms = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
    const long long runs_before = cold_runs;
    client_us.push_back(static_cast<double>(r.client_ns) * 1e-3);
    late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
    bool ok = true;
    if (r.kind == Kind::kHit) {
      ++hits;
      hit_ms.push_back(ms);
      ok = r.cache_hit && r.result == primed_bytes[r.text];
      report.check(ok, "cache hit " + std::to_string(i) + " differs from the primed bytes");
    } else {
      ++misses;
      (r.kind == Kind::kCold ? cold_ms : sweep_ms).push_back(ms);
      served_s += ms * 1e-3;
      std::string expected;
      const std::int64_t t0 = now_ns();
      if (r.kind == Kind::kCold) {
        const ScenarioSpec spec = ScenarioSpec::from_json_text(r.text);
        const std::int64_t t1 = now_ns();
        const ResolvedScenario resolved = resolve_scenario(spec);
        const std::int64_t t2 = now_ns();
        const CampaignResult result =
            local.submit(resolved.values, resolved.instance, resolved.adversary,
                         resolved.config).take();
        const std::int64_t t3 = now_ns();
        expected = campaign_result_to_json(result).dump();
        const std::int64_t t4 = now_ns();
        parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        resolve_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        local_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
        encode_us.push_back(static_cast<double>(t4 - t3) * 1e-3);
        bytes += static_cast<double>(expected.size());
        cold_runs += result.runs;
      } else {
        SweepOptions sweep_options;
        sweep_options.executor = &local;
        const std::vector<CampaignResult> results =
            run_sweep(SweepSpec::from_json_text(r.text), sweep_options);
        expected = campaign_results_to_json(results).dump();
        for (const CampaignResult& c : results) cold_runs += c.runs;
      }
      ok = !r.cache_hit && r.result == expected;
      report.check(ok, "served request " + std::to_string(i) + " differs from local bytes");
    }
    if (ok && ms <= kLimitMs) ++good;
    if ((i / kBlock) % 2 == 1 && r.kind != Kind::kHit) {
      runs_traced += cold_runs - runs_before;
      served_traced_s += ms * 1e-3;
    }
  }
  tracer.set_enabled(options.trace);
  report.check(stats.hits == hits && stats.misses == misses + kPrimed,
               "server cache counters disagree with the client's view");
  report.check(stats.failed == 0, "server reported failed jobs");
  report.check(shed == stats.shed, "shed count mismatch");
  report.canary("service.requests", static_cast<long long>(requests.size()));
  report.canary("service.cache_hits", hits);
  report.canary("service.cache_misses", misses);

  // The open loop fixes how many runs are requested per second, so the
  // rate is taken over the time the cold requests waited: runs delivered
  // per second of cold-request latency, which only the server moves.
  report.metric("runs_per_s", static_cast<double>(cold_runs) / served_s, "1/s");
  report_latency(report, "job", cold_ms, true);
  report.metric("repeat_p50_ms", median(hit_ms), "ms");
  report.metric("goodput_per_s", good / elapsed, "1/s");
  {
    std::ostringstream os;
    os << "service_mix: " << requests.size() << " requests at " << kOfferedRate
       << "/s offered: " << hits << " hits, " << misses << " cold; hit p50 "
       << median(hit_ms) << " ms, cold scenario p50 " << median(cold_ms)
       << " ms, sweep p50 " << median(sweep_ms) << " ms";
    report.note(os.str());
  }

  if (!options.trace) return;

  // runs_per_s over the traced and the untraced blocks of the schedule.
  report_trace_overhead(
      report,
      served_traced_s > 0 ? static_cast<double>(runs_traced) / served_traced_s : 0.0,
      static_cast<double>(cold_runs - runs_traced) / (served_s - served_traced_s));
  report.metric("scenario.parse_us", median(parse_us), "us");
  report.metric("scenario.resolve_us", median(resolve_us), "us");
  report.metric("result_json.encode_us", median(encode_us), "us");
  report.metric("result_json.bytes",
                encode_us.empty() ? 0.0 : bytes / static_cast<double>(encode_us.size()),
                "count");
  report.metric("service.client_us", median(client_us), "us");
  report.metric("service.overhead_ms", median(cold_ms) - median(local_ms), "ms");
  report.metric("service.generator_late_ms", quantile(late_ms, 0.99), "ms");
  report.metric("service.cache_hits", static_cast<double>(hits), "count");
  report.metric("service.cache_misses", static_cast<double>(misses), "count");
  report.metric("service.jobs_shed", static_cast<double>(stats.shed), "count");
  report.metric("service.retries", static_cast<double>(retries), "count");
}

void run_service_saturation(const Options& options, Tracer&, Report& report) {
  std::vector<std::string> primed_texts;
  for (int i = 0; i < kPrimed; ++i)
    primed_texts.push_back(scenario_text(mix_seed(options.seed, 1000 + i)));
  ServerProcess server = start_server(0);
  std::vector<Connection> connections;
  for (int k = 0; k < kConnections; ++k)
    connections.push_back(open_connection(server.address));
  submit_all(connections[0], primed_texts);

  // Closed loop: every answer on a connection is replaced by the next
  // request of the sequence until the window closes, then the rest drain.
  Rng rng(mix_seed(options.seed, 7));
  std::vector<Request> sent;
  auto send = [&](std::size_t k) {
    Request r = make_request(options.seed, static_cast<int>(sent.size()),
                             primed_texts, rng);
    send_frame(connections[k],
               service::encode_submit(static_cast<int>(sent.size()),
                                      r.kind == Kind::kSweep,
                                      Json::parse(r.text), false));
    sent.push_back(std::move(r));
  };
  for (std::size_t k = 0; k < connections.size(); ++k)
    for (int w = 0; w < kSaturationWindow; ++w) send(k);
  long long outstanding = static_cast<long long>(sent.size());
  long long completed = 0;
  long long shed = 0;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<pollfd> fds(connections.size());
  while (outstanding > 0) {
    for (std::size_t k = 0; k < connections.size(); ++k)
      fds[k] = pollfd{connections[k].fd, POLLIN, 0};
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    for (std::size_t k = 0; k < connections.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (const std::string& frame : read_frames(connections[k])) {
        const service::ServerMessage m = service::parse_server_message(frame);
        if (m.type == service::ServerMessage::Type::kError && m.retry_after_ms >= 0) {
          ++shed;
          const Request& r = sent.at(static_cast<std::size_t>(m.id));
          send_frame(connections[k],
                     service::encode_submit(m.id, r.kind == Kind::kSweep,
                                            Json::parse(r.text), false));
          continue;
        }
        report.attempt(m.type == service::ServerMessage::Type::kResult);
        --outstanding;
        if (now_ns() >= end) continue;
        ++completed;
        send(k);
        ++outstanding;
      }
    }
  }
  for (Connection& c : connections) ::close(c.fd);
  stop_server_process(server);
  const double rate = static_cast<double>(completed) / options.seconds;
  report.metric("service.saturation_per_s", rate, "1/s");
  std::ostringstream os;
  os << "service_saturation: " << completed << " requests in " << options.seconds
     << " s closed-loop (" << kSaturationWindow << " outstanding per connection, "
     << shed << " shed): " << rate << "/s";
  report.note(os.str());
}

}  // namespace perfbench
