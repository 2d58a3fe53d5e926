// `capbench_harness load`: the open-loop HTTP client of serve-mixed.
//
// Requests are due at fixed spacing (1 / rate) from the phase start; a
// worker per keep-alive connection (at most nproc of them) takes the next
// due request whenever it is free. Latency is timed from the due time, so a
// stall also charges every request queued behind it; `lag` is how late the
// request actually left. A phase's p50s, over all requests and over the
// cold ones, are medians of its 1-second windows' p50s; its p99 is over the
// whole phase. A phase passes when it has
// no failure, its p99 meets the limit, and its lag does not grow from the
// first fifth of the phase to the last (no backlog growth). Last,
// closed-loop rounds send back to back on every connection and give the
// daemon's capacity: the median over rounds of served requests per wall
// second.
//
// Hot requests repeat one of a few specs and must come back byte-identical
// to their first response (the result cache); the first response of each
// hot spec, and a sample of cold ones, are checked against the same config
// simulated in this process.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace capbench {

using namespace capart;

namespace {

// The load shape. serve-mixed runs a light and a heavy fixed rate, a ladder
// above heavy, then the closed-loop saturation rounds; --seconds sets only
// the heavy phase's length.
constexpr std::size_t kHotKeys = 4;
/// One request in every block of this many is cold (80 % hot). Its place in
/// the block is seeded, so the seed varies the order but not how closely
/// cold requests bunch up, which would otherwise set the heavy p99.
constexpr std::size_t kColdEvery = 5;
/// At heavy, the cold simulations (40 a second at about 10 ms each) fill a
/// fifth of the daemon's 2 running slots. At twice the rate the heavy p99
/// spread more than twice as much across runs on a slow host.
constexpr double kLightRps = 100.0;
constexpr double kHeavyRps = 200.0;
constexpr std::size_t kLightRequests = 1000;
constexpr std::size_t kLadderRequests = 1000;
constexpr std::size_t kSaturateRounds = 5;
constexpr std::size_t kSaturateRequests = 1000;  // per round
/// The heavy phase fills this share of --seconds, with at least 1000
/// requests so its p99 has 10 samples beyond it.
constexpr double kHeavyShare = 0.75;
constexpr std::size_t kMinHeavyRequests = 1000;
constexpr double kP99LimitSeconds = 0.100;
constexpr double kBacklogGrowthSeconds = 0.005;
/// Rate of the short session a simulator workload's traced run submits.
constexpr double kLayerRps = 20.0;
/// At most this many keep-alive connections, and never more than nproc.
constexpr unsigned kMaxConns = 4;
/// A client sleeps to this long before a request is due and spins the
/// rest, so the timer's wake-up slack (about 0.1 ms, and host-dependent)
/// is not charged to a cache hit's sub-millisecond latency.
constexpr auto kSendSpin = std::chrono::microseconds(200);
/// A fixed-rate phase's p50s are medians of the p50s of its windows of
/// this many seconds of due times, so a disturbance of the host that lasts
/// a few seconds moves few windows rather than the whole phase's quantile.
constexpr double kWindowSeconds = 1.0;

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{30, 0};  // a response slower than this is a failure
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

struct Response {
  int status = 0;
  bool cache_hit = false;
  std::string body;
};

/// One Content-Length-framed response; `carry` keeps bytes read past it.
bool read_response(int fd, std::string& carry, Response& response,
                   std::string& what) {
  auto fill = [&]() -> bool {
    char buffer[16 * 1024];
    const ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
    if (got <= 0) {
      what = got == 0 ? "connection closed mid-response"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    carry.append(buffer, static_cast<std::size_t>(got));
    return true;
  };
  std::size_t head_end;
  while ((head_end = carry.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  const std::string_view head = std::string_view(carry).substr(0, head_end);
  if (!head.starts_with("HTTP/1.1 ") || head.size() < 12) {
    what = "malformed status line";
    return false;
  }
  response.status =
      (head[9] - '0') * 100 + (head[10] - '0') * 10 + (head[11] - '0');
  response.cache_hit =
      head.find("X-Capart-Cache: hit") != std::string_view::npos;
  const std::string_view length_name = "Content-Length: ";
  const std::size_t at = head.find(length_name);
  if (at == std::string_view::npos) {
    what = "response without Content-Length";
    return false;
  }
  const std::size_t body_bytes = std::strtoull(
      std::string(head.substr(at + length_name.size(), 20)).c_str(), nullptr,
      10);
  const std::size_t body_at = head_end + 4;
  while (carry.size() < body_at + body_bytes) {
    if (!fill()) return false;
  }
  response.body = carry.substr(body_at, body_bytes);
  carry.erase(0, body_at + body_bytes);
  return true;
}

std::string http_request(const std::string& method, const std::string& path,
                         const std::string& body) {
  std::string out = method + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n";
  return out + body;
}

/// A keep-alive client connection.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(dial(port)) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool exchange(const std::string& request, Response& response,
                std::string& what) {
    if (!send_all(fd_, request)) {
      what = std::string("send: ") + std::strerror(errno);
      return false;
    }
    return read_response(fd_, carry_, response, what);
  }

 private:
  int fd_;
  std::string carry_;
};

/// CPU seconds (user + system) of process `pid` so far.
double process_cpu(int pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

struct Request {
  bool hot = false;
  std::size_t key = 0;  // hot key, or cold request index
  std::string body;
};

struct Sample {
  double latency = 0.0;  // completion - due
  double lag = 0.0;      // sent - due
  bool ok = false;
  bool hot = false;
};

struct PhaseResult {
  std::string name;
  double rate = 0.0;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  // non-200, timeouts, protocol errors, mismatches
  std::size_t cache_hits = 0;
  std::vector<Sample> samples;
  double wall = 0.0;
  double daemon_cpu = 0.0;
  bool backlog_growth = false;
};

/// Runs phases against one daemon and keeps what the correctness checks
/// need across them.
class LoadRun {
 public:
  LoadRun(std::uint16_t port, int pid) : port_(port), pid_(pid) {}

  std::vector<std::string> errors;
  std::map<std::size_t, std::string> hot_first;    // first body per hot key
  std::map<std::size_t, std::string> cold_sample;  // cold index -> body

  /// A `rate` of 0 is a closed loop: each connection sends its next
  /// request as soon as the last one is answered, so latency and lag run
  /// from the send.
  PhaseResult run_phase(const std::string& name, double rate,
                        const std::vector<Request>& requests, unsigned conns) {
    PhaseResult r;
    r.name = name;
    r.rate = rate;
    r.requests = requests.size();
    r.samples.resize(requests.size());
    std::atomic<std::size_t> next{0};
    std::mutex mutex;  // guards r's counters, errors and the body maps
    const double cpu0 = process_cpu(pid_);
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < conns; ++c) {
      workers.emplace_back([&] {
        Connection conn(port_);
        for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
          const auto due =
              rate > 0.0
                  ? start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) / rate))
                  : Clock::now();
          std::this_thread::sleep_until(due - kSendSpin);
          while (Clock::now() < due) {
          }
          Sample& s = r.samples[i];
          s.hot = requests[i].hot;
          s.lag = std::chrono::duration<double>(Clock::now() - due).count();
          Response response;
          std::string what;
          const bool got =
              conn.ok() &&
              conn.exchange(http_request("POST", "/run", requests[i].body),
                            response, what);
          s.latency = std::chrono::duration<double>(Clock::now() - due).count();
          const std::lock_guard<std::mutex> lock(mutex);
          if (!got) {
            note(r, name + ": request " + std::to_string(i) + ": " +
                        (conn.ok() ? what : "connect failed"));
            continue;
          }
          if (response.cache_hit) ++r.cache_hits;
          if (response.status != 200 ||
              response.body.find("\"ok\":true") == std::string::npos) {
            note(r, name + ": status " + std::to_string(response.status) +
                        ": " + response.body.substr(0, 200));
            continue;
          }
          if (requests[i].hot) {
            auto [it, fresh] =
                hot_first.emplace(requests[i].key, response.body);
            if (!fresh && it->second != response.body) {
              note(r, name + ": hot spec " + std::to_string(requests[i].key) +
                          " body differs from its first response");
              continue;
            }
          } else if (cold_sample.size() < 3) {
            cold_sample.emplace(requests[i].key, response.body);
          }
          s.ok = true;
          ++r.ok;
        }
      });
    }
    for (std::thread& t : workers) t.join();
    r.wall = seconds_since(start);
    r.daemon_cpu = process_cpu(pid_) - cpu0;
    // Backlog growth: lateness at the end of the phase against its start.
    const std::size_t fifth = std::max<std::size_t>(r.samples.size() / 5, 1);
    std::vector<double> head, tail;
    for (std::size_t i = 0; i < fifth && i < r.samples.size(); ++i) {
      head.push_back(r.samples[i].lag);
      tail.push_back(r.samples[r.samples.size() - 1 - i].lag);
    }
    r.backlog_growth = median(tail) - median(head) > kBacklogGrowthSeconds;
    return r;
  }

 private:
  void note(PhaseResult& r, const std::string& what) {
    ++r.failed;
    if (errors.size() < 20) errors.push_back(what);
  }

  std::uint16_t port_;
  int pid_;
};

struct Verdict {
  double p50 = 0.0;
  /// Of the cold requests only: cache misses, which the daemon executes.
  double p50_cold = 0.0;
  double p99 = 0.0;
  /// p99 is only stated with >= 10 samples beyond it.
  bool p99_valid = false;
  bool passed = false;
};

/// A failed request misses every latency limit.
double latency_or_miss(const Sample& s) { return s.ok ? s.latency : 1e9; }

/// The median of the p50s of the phase's kWindowSeconds windows of due
/// times (one window in a closed loop), over every request or only the
/// cold ones.
double windowed_p50(const PhaseResult& r, bool cold_only) {
  const std::size_t n = r.samples.size();
  const std::size_t window =
      r.rate > 0.0 ? std::max<std::size_t>(
                         1, static_cast<std::size_t>(r.rate * kWindowSeconds))
                   : std::max<std::size_t>(n, 1);
  std::vector<double> window_p50;
  for (std::size_t at = 0; at < n; at += window) {
    std::vector<double> lat;
    for (std::size_t i = at; i < std::min(at + window, n); ++i) {
      if (!cold_only || !r.samples[i].hot) {
        lat.push_back(latency_or_miss(r.samples[i]));
      }
    }
    if (!lat.empty()) window_p50.push_back(quantile(std::move(lat), 0.5));
  }
  return median(std::move(window_p50));
}

/// A phase passes when its p99 is valid and meets `limit`, with no failure
/// and no backlog growth.
Verdict judge(const PhaseResult& r, double limit) {
  std::vector<double> lat;
  for (const Sample& s : r.samples) lat.push_back(latency_or_miss(s));
  Verdict v;
  v.p50 = windowed_p50(r, false);
  v.p50_cold = windowed_p50(r, true);
  v.p99 = quantile(lat, 0.99);
  v.p99_valid = lat.size() >= 1000;
  v.passed = r.failed == 0 && v.p99_valid && v.p99 <= limit &&
             !r.backlog_growth;
  return v;
}

/// Checks one response body's per-arm totals against `config` simulated
/// in this process.
bool verify_body(const std::string& body, const sim::ExperimentConfig& config,
                 std::string& what) {
  const sim::ExperimentResult expect = sim::run_experiment(config);
  const std::optional<obs::JsonValue> doc = obs::parse_json(body, &what);
  if (!doc) return false;
  const obs::JsonValue* arms = doc->find("arms");
  if (arms == nullptr || !arms->is_array() || arms->array.size() != 1) {
    what = "response has no single arm";
    return false;
  }
  const obs::JsonValue& arm = arms->array[0];
  const obs::JsonValue* cycles = arm.find("total_cycles");
  const obs::JsonValue* instr = arm.find("instructions_retired");
  if (cycles == nullptr || instr == nullptr ||
      cycles->as_u64() != expect.outcome.total_cycles ||
      instr->as_u64() != expect.outcome.instructions_retired) {
    what = "served totals differ from the in-process simulation";
    return false;
  }
  return true;
}

void write_phase(obs::JsonWriter& w, const PhaseResult& r, double limit) {
  const Verdict v = judge(r, limit);
  std::vector<double> lag;
  for (const Sample& s : r.samples) lag.push_back(s.lag);
  w.begin_object()
      .key("name").value(r.name)
      .key("rate").value(r.rate)
      .key("requests").value(r.requests)
      .key("ok").value(r.ok)
      .key("failed").value(r.failed)
      .key("cache_hits").value(r.cache_hits)
      .key("p50_ms").value(1e3 * v.p50)
      .key("p50_cold_ms").value(1e3 * v.p50_cold)
      .key("p99_ms").value(1e3 * v.p99)
      .key("p99_valid").value(v.p99_valid)
      .key("lag_p99_ms").value(1e3 * quantile(lag, 0.99))
      .key("backlog_growth").value(r.backlog_growth)
      .key("wall_s").value(r.wall)
      .key("daemon_cpu_s").value(r.daemon_cpu)
      .key("passed").value(v.passed)
      .end_object();
}

}  // namespace

int run_load_command(const std::map<std::string, std::string>& args) {
  const auto port =
      static_cast<std::uint16_t>(std::stoul(arg_or(args, "port", "0")));
  const int pid = std::stoi(arg_or(args, "pid", "0"));
  const std::string workload = arg_or(args, "workload", "");
  const std::uint64_t seed = std::stoull(arg_or(args, "seed", "42"));
  const double seconds = std::stod(arg_or(args, "seconds", "20"));
  const unsigned conns =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxConns);
  const double limit = kP99LimitSeconds;
  if (port == 0 || pid == 0) throw Error("load: --port and --pid required");

  // Hot keys: serve-mixed's hot specs, or for a simulator workload its
  // first arms (the serve layer measured on that workload's configs).
  std::vector<sim::ExperimentConfig> hot_cfg;
  if (workload == "serve-mixed") {
    hot_cfg = serve_hot_configs(seed);
  } else {
    const Workload w = make_workload(workload, seed);
    for (std::size_t i = 0; i < kHotKeys && i < w.arms.size(); ++i) {
      hot_cfg.push_back(w.arms[i].config);
    }
  }
  std::vector<std::string> hot_body;
  for (std::size_t k = 0; k < hot_cfg.size(); ++k) {
    hot_body.push_back(spec_body("hot" + std::to_string(k), hot_cfg[k]));
  }

  Rng rng(seed ^ 0x5e57ULL);
  std::uint64_t cold_index = 0;
  // With `mixed`, one cold request per kColdEvery at a seeded place, so
  // every run offers the same amount of cold work; otherwise all hot.
  auto make_requests = [&](std::size_t n, bool mixed) {
    std::vector<Request> out;
    std::size_t cold_at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kColdEvery == 0) {
        cold_at = i + static_cast<std::size_t>(rng.below(kColdEvery));
      }
      Request r;
      r.hot = !mixed || i != cold_at;
      if (r.hot) {
        r.key = static_cast<std::size_t>(rng.below(hot_cfg.size()));
        r.body = hot_body[r.key];
      } else {
        r.key = cold_index++;
        r.body = spec_body("cold", serve_cold_config(seed, r.key));
      }
      out.push_back(std::move(r));
    }
    return out;
  };

  LoadRun run(port, pid);
  std::vector<PhaseResult> phases;
  // Warm-up: each hot spec once, in order, on one connection, so the
  // measured phases see a primed result cache.
  std::vector<Request> warm;
  for (std::size_t k = 0; k < hot_cfg.size(); ++k) {
    warm.push_back({true, k, hot_body[k]});
  }
  phases.push_back(run.run_phase("warm", 1000.0, warm, 1));

  double max_ok = 0.0;
  std::vector<double> saturated_rps;
  if (workload == "serve-mixed") {
    struct Step {
      std::string name;
      double rate;
      std::size_t requests;
    };
    const auto heavy_requests = std::max(
        kMinHeavyRequests,
        static_cast<std::size_t>(kHeavyShare * seconds * kHeavyRps));
    // The two fixed rates, then the ladder above heavy. Every step runs
    // while all before it met the limit; max_ok_rps is the last that did.
    std::vector<Step> steps = {{"light", kLightRps, kLightRequests},
                               {"heavy", kHeavyRps, heavy_requests}};
    for (double factor : {1.5, 2.0, 3.0, 4.0, 6.0}) {
      steps.push_back({"ladder_" + std::to_string(static_cast<long>(
                                       kHeavyRps * factor)),
                       kHeavyRps * factor, kLadderRequests});
    }
    bool all_passed = true;
    for (const Step& step : steps) {
      const bool on_ladder = step.name.rfind("ladder_", 0) == 0;
      if (on_ladder && !all_passed) break;
      phases.push_back(run.run_phase(
          step.name, step.rate, make_requests(step.requests, true),
          conns));
      all_passed = all_passed && judge(phases.back(), limit).passed;
      if (all_passed) max_ok = step.rate;
    }
    for (std::size_t round = 0; round < kSaturateRounds; ++round) {
      phases.push_back(run.run_phase("saturate", 0.0,
                                     make_requests(kSaturateRequests, true),
                                     conns));
      saturated_rps.push_back(static_cast<double>(phases.back().ok) /
                              phases.back().wall);
    }
  } else {
    // A few rounds over the workload's arms: the first request of each is
    // a cache miss, the rest are hits.
    phases.push_back(run.run_phase(
        "layer", kLayerRps, make_requests(4 * hot_cfg.size(), false), conns));
  }

  obs::JsonWriter out;
  out.begin_object().key("phases").begin_array();
  std::size_t attempted = 0, failed = 0;
  for (const PhaseResult& r : phases) {
    write_phase(out, r, limit);
    attempted += r.requests;
    failed += r.failed;
  }
  out.end_array();

  // Correctness of served results against in-process simulation: every
  // hot spec's first response, and a few cold ones.
  std::size_t verified = 0;
  std::vector<std::string> errors = run.errors;
  for (const auto& [key, body] : run.hot_first) {
    std::string what;
    ++attempted;
    if (verify_body(body, hot_cfg[key], what)) {
      ++verified;
    } else {
      ++failed;
      errors.push_back("hot spec " + std::to_string(key) + ": " + what);
    }
  }
  for (const auto& [key, body] : run.cold_sample) {
    std::string what;
    ++attempted;
    if (verify_body(body, serve_cold_config(seed, key), what)) {
      ++verified;
    } else {
      ++failed;
      errors.push_back("cold spec " + std::to_string(key) + ": " + what);
    }
  }

  out.key("max_ok_rps").value(max_ok);
  out.key("saturated_rps").value(median(saturated_rps));
  out.key("p99_limit_ms").value(limit * 1e3);
  out.key("conns").value(conns);
  out.key("verified").value(verified);
  out.key("attempted").value(attempted);
  out.key("failed").value(failed);
  out.key("errors").begin_array();
  for (const std::string& e : errors) out.value(e);
  out.end_array();
  out.end_object();
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace capbench
