// rekey_perfbench — batch rekeying over the real wire, end to end and per
// layer.
//
//   rekey_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The load process (this one) spawns the key server as its own process
// (the same binary with --role daemon), so the server's CPU and RSS are
// measured apart from the fleets'. The server runs a KeyServerDaemon behind
// a RecordingWire (and, on the replicated workload, a warm standby thread);
// the load process runs one ClientFleet per socket, each behind a
// FleetProbe. A run repeats whole sessions (set-up, batches, Fin), each with
// its own seed drawn from --seed, until --seconds have passed. The first
// batch of each session is warm-up and stays out of every per-batch figure.
//
// --trace 1 alternates untraced and traced sessions (the difference is the
// tracing overhead), tiles every traced batch window into layer spans, and
// replays the batches through the public layer functions for the keytree,
// crypto, packet and FEC numbers. Spans go to --out-dir as JSON lines.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics and one protocol-counter digest per session.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "probe.h"
#include "replay.h"
#include "wire/backend.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

using rekey::Json;

constexpr std::uint32_t kLoopback = 0x7F000001;
constexpr auto kBackend = wire::WireBackend::kEpoll;
constexpr int kMinSessions = 3;
constexpr int kMinTracedSessions = 4;  // two untraced, two traced
// A run stops starting sessions once this much wall time is gone, so it
// ends well inside the 180 s a run may take.
constexpr double kRunBudgetMs = 120000.0;

struct Args {
  std::string role = "bench";  // bench | daemon | load
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;          // daemon role: span file of a traced session
  std::uint64_t server = 0;   // load role: the key server's endpoint
  std::uint64_t standby = 0;  // load role: the standby's endpoint (0: none)
  std::string out_dir = ".bench_build/perfbench-out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--role") a.role = v;
      else if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--spans") a.spans = v;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--server") a.server = std::stoull(v);
      else if (k == "--standby") a.standby = std::stoull(v);
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0.0)
    return std::nullopt;
  return a;
}

// ---------------------------------------------------------------- daemon

Json stats_json(const wire::DaemonStats& s) {
  Json j = Json::object();
  j.set("enc_packets", s.enc_packets);
  j.set("slots", s.slots);
  j.set("data_frames", s.data_frames);
  j.set("proactive_parities", s.proactive_parities);
  j.set("reactive_parities", s.reactive_parities);
  j.set("rounds", s.rounds);
  j.set("unicast_waves", s.unicast_waves);
  j.set("usr_frags", s.usr_frags);
  j.set("control_frames", s.control_frames);
  j.set("control_retransmits", s.control_retransmits);
  j.set("nack_users", s.nack_users);
  j.set("recovered", s.recovered);
  j.set("gave_up", s.gave_up);
  j.set("gave_up_dead", s.gave_up_dead);
  j.set("wire_version", s.wire_version);
  j.set("rho_final", s.rho_final);
  j.set("snapshots_sent", s.snapshots_sent);
  j.set("snapshot_chunks", s.snapshot_chunks);
  j.set("completed", s.completed);
  return j;
}

// Runs a standby KeyServerDaemon on its own thread; joins it on every path.
class StandbyRunner {
 public:
  StandbyRunner(wire::WireTransport& wire, const wire::DaemonConfig& config)
      : daemon_(wire, config), thread_([this] {
          try {
            stats_ = daemon_.run();
          } catch (const std::exception& e) {
            std::cerr << "perfbench: standby: " << e.what() << "\n";
          }
        }) {}
  StandbyRunner(const StandbyRunner&) = delete;
  StandbyRunner& operator=(const StandbyRunner&) = delete;
  ~StandbyRunner() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }

  // Waits for the standby to end on its own (the primary's Fin).
  wire::DaemonStats finish() {
    thread_.join();
    return stats_;
  }

 private:
  wire::KeyServerDaemon daemon_;
  wire::DaemonStats stats_;
  std::thread thread_;  // last: starts after the members it uses
};

int daemon_main(const Args& a, const Workload& w) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  wire::DaemonConfig dc = daemon_config(w, a.seed);
  auto primary = wire::make_socket_wire(kBackend, kLoopback, 0);
  std::unique_ptr<wire::SocketWire> standby_sock;
  if (w.replicated) {
    standby_sock = wire::make_socket_wire(kBackend, kLoopback, 0);
    dc.peer = standby_sock->local_endpoint();
  }
  std::printf("%" PRIu64 " %" PRIu64 "\n", primary->local_endpoint().id,
              standby_sock ? standby_sock->local_endpoint().id : 0);
  std::fflush(stdout);

  std::optional<StandbyRunner> standby;
  if (w.replicated) {
    wire::DaemonConfig sc = dc;
    sc.standby = true;
    sc.peer = primary->local_endpoint();
    standby.emplace(*standby_sock, sc);
  }

  const bool traced = !a.spans.empty();
  RecordingWire rec(*primary, traced);
  const double t_start = now_ms();
  wire::DaemonStats ds;
  {
    wire::KeyServerDaemon daemon(rec, dc);
    ds = daemon.run();
  }
  // The primary's Fin retires the standby.
  const wire::DaemonStats standby_stats =
      standby ? standby->finish() : wire::DaemonStats{};
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json out = Json::object();
  out.set("stats", stats_json(ds));
  out.set("standby_restored", standby_stats.snapshots_restored);
  out.set("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  const auto& marks = rec.batches();
  out.set("setup_ms", marks.empty() ? -1.0 : marks[0].close_ms - t_start);
  Json jm = Json::array();
  for (const BatchMarks& m : marks) {
    Json b = Json::object();
    b.set("confirmed", m.confirmed);
    b.set("close_ms", m.close_ms);
    b.set("confirm_ms", m.confirm_ms);
    b.set("close_cpu", m.close_cpu);
    b.set("confirm_cpu", m.confirm_cpu);
    b.set("close_sys", m.close_sys);
    b.set("confirm_sys", m.confirm_sys);
    b.set("pipe_ms", m.pipe_end_ms - m.pipe_start_ms);
    b.set("pipe_cpu_ms", m.pipe_end_cpu - m.pipe_start_cpu);
    jm.push_back(std::move(b));
  }
  out.set("batches", std::move(jm));
  const WindowTotals& t = rec.totals();
  Json jt = Json::object();
  jt.set("receive_calls", t.receive_calls);
  jt.set("datagrams", t.datagrams);
  jt.set("data_frames", t.data_frames);
  jt.set("data_bytes", t.data_bytes);
  jt.set("send_frames_ms", t.send_frames_ms);
  jt.set("usr_bytes", t.usr_bytes);
  jt.set("snap_bytes", t.snap_bytes);
  out.set("totals", std::move(jt));

  if (traced) {
    const std::vector<BatchSegments> segs = segment_batches(rec);
    Json js = Json::array();
    for (const BatchSegments& bs : segs) {
      Json b = Json::object();
      std::map<std::string, double> dur, self;
      for (const Segment& s : bs.segments) {
        dur[segment_name(s.kind)] += s.t1 - s.t0;
        self[segment_name(s.kind)] += (s.t1 - s.t0) - s.calls_ms;
      }
      Json jd = Json::object(), jself = Json::object();
      for (const auto& [k, v] : dur) jd.set(k, v);
      for (const auto& [k, v] : self) jself.set(k, v);
      b.set("ms", std::move(jd));
      b.set("self_ms", std::move(jself));
      b.set("gap_frac", bs.gap_frac);
      b.set("r1_enc", bs.r1_enc);
      b.set("r1_enc_unique", bs.r1_enc_unique);
      b.set("r1_parity", bs.r1_parity);
      b.set("report_parts", bs.report_parts);
      js.push_back(std::move(b));
    }
    out.set("segments", std::move(js));
    write_spans(a.spans, rec, segs);
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

// ------------------------------------------------------------------ load

// The load process of one session: one ClientFleet per socket, fleet 0 on
// the main thread. Prints one JSON line with each fleet's results.
int load_main(const Args& a, const Workload& w) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const std::uint32_t last_batch = w.batches - 1;
  std::vector<std::unique_ptr<wire::SocketWire>> socks;
  std::vector<std::unique_ptr<FleetProbe>> probes;
  for (unsigned k = 0; k < w.sockets; ++k) {
    socks.push_back(wire::make_socket_wire(kBackend, kLoopback, 0));
    probes.push_back(
        std::make_unique<FleetProbe>(*socks.back(), 1, last_batch));
  }
  std::vector<wire::FleetStats> stats(w.sockets);
  auto run_fleet = [&](unsigned k) {
    try {
      wire::FleetConfig fc = fleet_config(w, a.seed, k);
      if (a.standby != 0) fc.failover.push_back(wire::Endpoint{a.standby});
      wire::ClientFleet fleet(*probes[k], wire::Endpoint{a.server}, fc);
      stats[k] = fleet.run();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: fleet " << k << ": " << e.what() << "\n";
    }
  };
  std::vector<std::thread> threads;
  for (unsigned k = 1; k < w.sockets; ++k) threads.emplace_back(run_fleet, k);
  run_fleet(0);
  for (std::thread& t : threads) t.join();

  bool ok = true;
  Json fleets = Json::array();
  for (unsigned k = 0; k < w.sockets; ++k) {
    const FleetProbe& p = *probes[k];
    ok = ok && stats[k].finished && p.complete();
    Json f = Json::object();
    f.set("recovered", stats[k].recovered);
    f.set("unrecovered", stats[k].unrecovered);
    f.set("data_frames", stats[k].data_frames);
    f.set("cpu_ms", p.cpu_ms());
    f.set("wall_ms", p.wall_ms());
    f.set("receive_calls", p.receive_calls());
    f.set("datagrams", p.datagrams());
    fleets.push_back(std::move(f));
  }
  Json out = Json::object();
  out.set("fleets", std::move(fleets));
  std::cout << out.dump() << std::endl;
  return ok ? 0 : 1;
}

// ------------------------------------------------------------- sessions

// A child process of this binary with its stdout on a pipe.
struct Child {
  pid_t pid = -1;
  FILE* out = nullptr;
};

std::optional<Child> spawn(const char* self,
                           const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> argv{const_cast<char*>(self)};
  for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  Child c;
  const int rc = posix_spawn(&c.pid, self, &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return std::nullopt;
  }
  c.out = fdopen(fds[0], "r");
  return c;
}

std::optional<std::string> read_line(FILE* in) {
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF && c != '\n')
    line.push_back(static_cast<char>(c));
  if (c == EOF && line.empty()) return std::nullopt;
  return line;
}

// Reads the child's remaining output and returns its last line as JSON.
std::optional<Json> read_report(FILE* in) {
  std::string last;
  while (const auto line = read_line(in))
    if (!line->empty()) last = *line;
  auto doc = Json::parse(last);
  if (!doc || !doc->is_object()) return std::nullopt;
  return doc;
}

// Waits for the child (killing it first when asked); true on exit code 0.
bool reap(Child& c, bool kill_first) {
  if (kill_first) kill(c.pid, SIGKILL);
  std::fclose(c.out);
  int status = 0;
  waitpid(c.pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct Session {
  bool traced = false;
  std::uint64_t seed = 0;  // the session's own seed
  std::string error;  // empty when the session ran to the end
  Json daemon;        // the key-server process's report
  Json load;          // the load process's report
};

// Session `index` of a run draws its own seed from the run's seed, so a run
// samples many distinct loss patterns and key streams.
std::uint64_t session_seed(std::uint64_t run_seed, int index) {
  return wire::mix64(run_seed ^ wire::mix64(static_cast<std::uint64_t>(index)));
}

Session run_session(const Args& a, const Workload& w, const char* self,
                    int index, bool traced) {
  Session s;
  s.traced = traced;
  s.seed = session_seed(a.seed, index);
  const std::vector<std::string> common = {"--workload", w.name, "--seed",
                                           std::to_string(s.seed)};
  std::vector<std::string> dargs = common;
  dargs.push_back("--role");
  dargs.push_back("daemon");
  if (traced) {
    dargs.push_back("--spans");
    dargs.push_back(a.out_dir + "/spans-" + w.name + "-seed" +
                    std::to_string(a.seed) + "-session" +
                    std::to_string(index) + ".jsonl");
  }
  auto daemon = spawn(self, dargs);
  if (!daemon) {
    s.error = "could not start the key server";
    return s;
  }
  std::uint64_t primary = 0, standby = 0;
  const auto first = read_line(daemon->out);
  if (!first || std::sscanf(first->c_str(), "%" SCNu64 " %" SCNu64, &primary,
                            &standby) != 2) {
    reap(*daemon, true);
    s.error = "key server did not report its endpoint";
    return s;
  }
  std::vector<std::string> largs = common;
  for (const std::string& x :
       {std::string("--role"), std::string("load"), std::string("--server"),
        std::to_string(primary), std::string("--standby"),
        std::to_string(standby)})
    largs.push_back(x);
  auto load = spawn(self, largs);
  if (!load) {
    reap(*daemon, true);
    s.error = "could not start the load process";
    return s;
  }
  const auto load_doc = read_report(load->out);
  if (!reap(*load, false) || !load_doc) {
    reap(*daemon, true);
    s.error = "a fleet did not finish its session";
    return s;
  }
  const auto daemon_doc = read_report(daemon->out);
  if (!reap(*daemon, false) || !daemon_doc) {
    s.error = "key-server process failed";
    return s;
  }
  s.load = *load_doc;
  s.daemon = *daemon_doc;
  return s;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double num(const Json& j, const char* key) { return j.at(key).as_double(); }

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The deterministic protocol counters of one session.
std::string protocol_counters(const Session& s) {
  const Json& st = s.daemon.at("stats");
  std::ostringstream os;
  for (const char* k :
       {"enc_packets", "slots", "data_frames", "proactive_parities",
        "reactive_parities", "rounds", "unicast_waves", "usr_frags",
        "nack_users", "recovered", "gave_up", "gave_up_dead"})
    os << k << '=' << st.at(k).as_int() << ';';
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& line) { notes_.push_back(line); }
  void fail(const std::string& why) {
    correct_ = false;
    notes_.push_back("CHECK FAILED: " + why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  void print(std::uint64_t attempted, std::uint64_t failed,
             const std::vector<std::string>& digests) const {
    for (const std::string& n : notes_) std::cout << "# " << n << '\n';
    for (const Metric& m : metrics_)
      std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    Json metrics = Json::object();
    for (const Metric& m : metrics_) {
      Json v = Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      metrics.set(m.name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", correct_);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", std::move(metrics));
    Json jd = Json::array();
    for (const std::string& d : digests) jd.push_back(d);
    out.set("digests", std::move(jd));
    std::cout << out.dump() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

// Close -> confirmed of the timed batches (warm-up batch 0 excluded).
std::vector<double> batch_latencies(const Session& s) {
  std::vector<double> out;
  const auto& b = s.daemon.at("batches").as_array();
  for (std::size_t i = 1; i < b.size(); ++i)
    out.push_back(num(b[i], "confirm_ms") - num(b[i], "close_ms"));
  return out;
}

std::vector<double> pooled_latencies(const std::vector<Session>& sessions,
                                     bool traced) {
  std::vector<double> v;
  for (const Session& s : sessions)
    if (s.traced == traced) {
      const auto l = batch_latencies(s);
      v.insert(v.end(), l.begin(), l.end());
    }
  return v;
}

// Sum of a daemon counter over the sessions of one kind.
double sum_stat(const std::vector<Session>& sessions, bool traced,
                const char* key) {
  double v = 0.0;
  for (const Session& s : sessions)
    if (s.traced == traced) v += num(s.daemon.at("stats"), key);
  return v;
}

// Busiest fleet thread's CPU / wall over the sessions of one kind.
double load_cpu_per_wall(const std::vector<Session>& sessions, bool traced) {
  double worst = 0.0;
  for (const Session& s : sessions)
    if (s.traced == traced)
      for (const Json& f : s.load.at("fleets").as_array())
        worst = std::max(worst,
                         num(f, "cpu_ms") / std::max(num(f, "wall_ms"), 1e-9));
  return worst;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t recovered = 0;
  std::vector<std::string> digests;  // per session, of protocol_counters()
};

// The correctness gate over every session of the run.
Outcome check_sessions(const Workload& w, const std::vector<Session>& sessions,
                       Report& rep) {
  const std::uint64_t per_session =
      static_cast<std::uint64_t>(w.clients) * w.batches;
  Outcome o;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session& s = sessions[i];
    const Json& st = s.daemon.at("stats");
    const std::string tag = "session " + std::to_string(i) + ": ";
    const std::uint64_t recovered = st.at("recovered").as_int();
    o.attempted += per_session;
    o.recovered += recovered;
    // Ledgers on both sides: every client-batch ends in exactly one outcome.
    const std::uint64_t daemon_ledger = recovered +
                                        st.at("gave_up").as_int() +
                                        st.at("gave_up_dead").as_int();
    std::uint64_t fleet_recovered = 0, fleet_ledger = 0;
    for (const Json& f : s.load.at("fleets").as_array()) {
      fleet_recovered += f.at("recovered").as_int();
      fleet_ledger +=
          f.at("recovered").as_int() + f.at("unrecovered").as_int();
    }
    rep.check(st.at("completed").as_bool(), tag + "daemon did not complete");
    rep.check(daemon_ledger == per_session,
              tag + "daemon ledger != clients x batches");
    rep.check(fleet_ledger == per_session,
              tag + "fleet ledger != clients x batches");
    rep.check(fleet_recovered == recovered,
              tag + "fleet and daemon disagree on recoveries");
    rep.check(s.daemon.at("batches").size() == w.batches,
              tag + "not every batch window was found on the wire");
    if (w.down_loss == 0.0 && w.up_loss == 0.0)
      rep.check(st.at("rounds").as_int() == w.batches &&
                    st.at("reactive_parities").as_int() == 0 &&
                    st.at("unicast_waves").as_int() == 0 &&
                    recovered == per_session,
                tag + "zero-loss batch needed more than round 1");
    if (w.replicated)
      rep.check(st.at("snapshots_sent").as_int() == w.batches &&
                    s.daemon.at("standby_restored").as_int() == w.batches,
                tag + "standby did not restore every snapshot");
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  fnv1a(protocol_counters(s)));
    o.digests.push_back(digest);
  }

  const double waves = sum_stat(sessions, false, "unicast_waves") +
                       sum_stat(sessions, true, "unicast_waves");
  std::ostringstream os;
  os << "outcomes: recovered " << o.recovered << " of " << o.attempted
     << " client-batches, gave_up "
     << sum_stat(sessions, false, "gave_up") + sum_stat(sessions, true, "gave_up")
     << ", gave_up_dead "
     << sum_stat(sessions, false, "gave_up_dead") +
            sum_stat(sessions, true, "gave_up_dead")
     << ", unicast waves " << waves;
  rep.note(os.str());
  return o;
}

void report_end_to_end(const Workload& w, const std::vector<Session>& sessions,
                       const Outcome& o, Report& rep) {
  const double timed = w.batches - 1;
  std::vector<double> lat = pooled_latencies(sessions, false);
  std::sort(lat.begin(), lat.end());
  const std::size_t n = lat.size();
  // Highest percentile with at least ten batches beyond it.
  const std::size_t tail_i = n > 10 ? n - 11 : n - 1;
  std::ostringstream os;
  os << "batch_tail_ms is p" << 100.0 * static_cast<double>(tail_i + 1) / n
     << " of " << n << " batches (" << n - 1 - tail_i << " beyond it)";
  rep.note(os.str());

  // Per-session figures, reported as medians over the run's sessions so a
  // session that ran while the host was busy does not move the result.
  std::vector<double> cpu, client_cpu, kb, setup, rss;
  for (const Session& s : sessions) {
    const auto& b = s.daemon.at("batches").as_array();
    cpu.push_back((num(b.back(), "confirm_cpu") - num(b[1], "close_cpu")) /
                  timed);
    double fleet_cpu = 0.0;
    for (const Json& f : s.load.at("fleets").as_array())
      fleet_cpu += num(f, "cpu_ms");
    client_cpu.push_back(fleet_cpu * 1e3 / (timed * w.clients));
    const Json& t = s.daemon.at("totals");
    kb.push_back((num(t, "data_bytes") / w.sockets + num(t, "usr_bytes")) /
                 1e3 / w.batches);
    setup.push_back(num(s.daemon, "setup_ms") / 1e3);
    rss.push_back(num(s.daemon, "rss_mb"));
  }
  const double recovered_frac =
      static_cast<double>(o.recovered) / static_cast<double>(o.attempted);
  rep.note("unrecovered_frac " + std::to_string(1.0 - recovered_frac) +
           " (reported as recovered_frac)");
  rep.add("batch_p50_ms", median(lat), "ms");
  rep.add("batch_tail_ms", lat[tail_i], "ms");
  rep.add("server_cpu_ms", median(cpu), "ms");
  rep.add("client_cpu_us", median(client_cpu), "us");
  rep.add("server_kb_per_batch", median(kb), "KB");
  rep.add("setup_s", median(setup), "s");
  rep.add("server_rss_mb", median(rss), "MB");
  rep.add("recovered_frac", recovered_frac, "frac");
}

void report_per_layer(const Workload& w,
                      const std::vector<Session>& sessions, Report& rep) {
  // Wire spans of the traced sessions' timed batches.
  const Session* first_traced = nullptr;
  std::vector<double> pipeline, burst, round_wait, unicast, snapshot;
  std::map<std::string, std::vector<double>> self_ms;
  double pipe_ms = 0.0, pipe_cpu = 0.0, gap_max = 0.0;
  double sys = 0.0, report_parts = 0.0, tb = 0.0;
  double recv_calls = 0.0, datagrams = 0.0, sf_ms = 0.0, frames = 0.0;
  double snap_bytes = 0.0, fleet_cpu = 0.0, fleet_calls = 0.0;
  double fleet_dgrams = 0.0, fleet_rx = 0.0, traced = 0.0;
  for (const Session& s : sessions) {
    if (!s.traced) continue;
    if (!first_traced) first_traced = &s;
    traced += 1.0;
    const auto& b = s.daemon.at("batches").as_array();
    const auto& segs = s.daemon.at("segments").as_array();
    rep.check(segs.size() == b.size(), "a traced window could not be tiled");
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Json& g = segs[i];
      gap_max = std::max(gap_max, num(g, "gap_frac"));
      if (i == 0) continue;
      auto seg = [&](const char* k) {
        const Json* v = g.at("ms").find(k);
        return v ? v->as_double() : 0.0;
      };
      for (const auto& [k, v] : g.at("self_ms").as_object())
        self_ms[k].push_back(v.as_double());
      pipeline.push_back(seg("pipeline"));
      burst.push_back(seg("burst"));
      round_wait.push_back(seg("round_wait"));
      unicast.push_back(seg("usr_send") + seg("usr_wait"));
      snapshot.push_back(seg("snapshot"));
      pipe_ms += num(b[i], "pipe_ms");
      pipe_cpu += num(b[i], "pipe_cpu_ms");
      sys += num(b[i], "confirm_sys") - num(b[i], "close_sys");
      report_parts += num(g, "report_parts");
      tb += 1.0;
    }
    const Json& t = s.daemon.at("totals");
    recv_calls += num(t, "receive_calls");
    datagrams += num(t, "datagrams");
    sf_ms += num(t, "send_frames_ms");
    frames += num(t, "data_frames");
    snap_bytes += num(t, "snap_bytes");
    for (const Json& f : s.load.at("fleets").as_array()) {
      fleet_cpu += num(f, "cpu_ms");
      fleet_calls += num(f, "receive_calls");
      fleet_dgrams += num(f, "datagrams");
      fleet_rx += num(f, "data_frames");
    }
  }
  rep.check(gap_max <= 0.01, "layer spans leave more than 1% of a window");
  std::ostringstream self_note;
  self_note << "self time per batch, median ms (span minus its wire calls):";
  for (const auto& [k, v] : self_ms) self_note << ' ' << k << ' ' << median(v);
  rep.note(self_note.str());

  // Replay the first traced session's batches through the layer functions.
  std::vector<ObservedBurst> observed;
  std::int64_t obs_enc = 0, obs_unique = 0, obs_parity = 0;
  for (const Json& g : first_traced->daemon.at("segments").as_array()) {
    ObservedBurst ob;
    ob.enc = static_cast<std::uint32_t>(g.at("r1_enc").as_int());
    ob.enc_unique = static_cast<std::uint32_t>(g.at("r1_enc_unique").as_int());
    ob.parity = static_cast<std::uint32_t>(g.at("r1_parity").as_int());
    obs_enc += ob.enc;
    obs_unique += ob.enc_unique;
    obs_parity += ob.parity;
    observed.push_back(ob);
  }
  const Json& fst = first_traced->daemon.at("stats");
  rep.check(obs_enc == fst.at("slots").as_int() &&
                obs_unique == fst.at("enc_packets").as_int() &&
                obs_parity == fst.at("proactive_parities").as_int(),
            "round-1 bursts on the wire disagree with the daemon's counters");
  const std::vector<ReplayBatch> rb =
      replay_batches(daemon_config(w, first_traced->seed),
                     fst.at("wire_version").as_int() >= wire::kWireV2,
                     observed);
  std::vector<double> mark, payload, assign, init;
  double edges = 0.0, payload_ms = 0.0, entries = 0.0, unique = 0.0;
  double encp = 0.0, parity_ms = 0.0, parities = 0.0, stages = 0.0;
  for (std::size_t i = 0; i < rb.size(); ++i) {
    rep.check(rb[i].matches, "replay batch " + std::to_string(i) +
                                 " differs from the daemon's wire counts");
    if (i == 0) continue;
    mark.push_back(rb[i].mark_ms);
    payload.push_back(rb[i].payload_ms);
    assign.push_back(rb[i].assign_ms);
    init.push_back(rb[i].server_init_ms);
    edges += static_cast<double>(rb[i].edges);
    payload_ms += rb[i].payload_ms;
    entries += static_cast<double>(rb[i].total_entries);
    unique += static_cast<double>(rb[i].unique_encryptions);
    encp += static_cast<double>(rb[i].enc_packets);
    parity_ms += rb[i].round1_ms;
    parities += static_cast<double>(rb[i].parities);
    stages += rb[i].mark_ms + rb[i].payload_ms + rb[i].assign_ms +
              rb[i].server_init_ms;
  }
  const double nrb = static_cast<double>(rb.size() - 1);
  // The replay covers the same batches as the first traced session.
  double first_pipe = 0.0;
  const auto& fb = first_traced->daemon.at("segments").as_array();
  for (std::size_t i = 1; i < fb.size(); ++i) {
    const Json* v = fb[i].at("ms").find("pipeline");
    first_pipe += v ? v->as_double() : 0.0;
  }
  const double batches_traced = traced * w.batches;
  auto per_batch = [&](const char* key) {
    return sum_stat(sessions, true, key) / batches_traced;
  };
  auto ratio = [](double x, double y) { return y > 0.0 ? x / y : 0.0; };
  const double p50_traced = median(pooled_latencies(sessions, true));
  const double p50_untraced = median(pooled_latencies(sessions, false));

  rep.add("keytree.mark_ms", median(mark), "ms");
  rep.add("keytree.payload_ms", median(payload), "ms");
  rep.add("keytree.edges_per_batch", edges / nrb, "count");
  rep.add("crypto.ns_per_edge", ratio(payload_ms * 1e6, edges), "ns");
  rep.add("packet.assign_ms", median(assign), "ms");
  rep.add("transport.server_init_ms", median(init), "ms");
  rep.add("packet.enc_packets_per_batch", encp / nrb, "count");
  rep.add("packet.dup_ratio", ratio(entries, unique), "ratio");
  rep.add("parallel.pipeline_cpu_per_wall", ratio(pipe_cpu, pipe_ms), "ratio");
  rep.add("fec.parity_us_per_frame", ratio(parity_ms * 1e3, parities), "us");
  rep.add("fec.parities_per_batch",
          per_batch("proactive_parities") + per_batch("reactive_parities"),
          "count");
  rep.add("transport.rounds_per_batch", per_batch("rounds"), "count");
  rep.add("transport.nack_users_per_batch", per_batch("nack_users"), "count");
  rep.add("transport.unicast_waves_per_batch", per_batch("unicast_waves"),
          "count");
  rep.add("transport.usr_frags_per_batch", per_batch("usr_frags"), "count");
  rep.add("transport.rho_final", sum_stat(sessions, true, "rho_final") / traced,
          "ratio");
  rep.add("wire.pipeline_ms", median(pipeline), "ms");
  rep.add("wire.burst_ms", median(burst), "ms");
  rep.add("wire.send_us_per_frame", ratio(sf_ms * 1e3, frames), "us");
  rep.add("wire.syscalls_per_batch", sys / tb, "count");
  rep.add("wire.datagrams_per_receive", ratio(datagrams, recv_calls), "count");
  rep.add("wire.rx_drop_frac",
          1.0 - ratio(fleet_rx, sum_stat(sessions, true, "data_frames")),
          "frac");
  rep.add("wire.round_wait_ms", median(round_wait), "ms");
  rep.add("fleet.cpu_ms_per_batch", fleet_cpu / tb, "ms");
  rep.add("fleet.frames_per_receive", ratio(fleet_dgrams, fleet_calls),
          "count");
  rep.add("wire.unicast_ms",
          std::accumulate(unicast.begin(), unicast.end(), 0.0) /
              static_cast<double>(unicast.size()),
          "ms");
  rep.add("wire.report_parts_per_batch", report_parts / tb, "count");
  rep.add("wire.control_retransmit_frac",
          ratio(sum_stat(sessions, true, "control_retransmits"),
                sum_stat(sessions, true, "control_frames")),
          "frac");
  rep.add("wire.snapshot_ship_ms", median(snapshot), "ms");
  rep.add("wire.snapshot_chunks_per_batch", per_batch("snapshot_chunks"),
          "count");
  rep.add("wire.snapshot_kb",
          ratio(snap_bytes / 1e3, sum_stat(sessions, true, "snapshots_sent")),
          "KB");
  rep.add("trace.pipeline_unattributed_frac",
          first_pipe > 0.0 ? 1.0 - stages / first_pipe : 0.0, "frac");
  rep.add("trace.overhead_frac",
          ratio(p50_traced - p50_untraced, p50_untraced), "frac");
  rep.add("trace.window_gap_frac", gap_max, "frac");
  rep.add("load.cpu_per_wall", load_cpu_per_wall(sessions, true), "ratio");
  rep.add("threads.total", session_threads(w), "count");
}

int bench_main(const Args& a, const Workload& w, const char* self) {
  const double t_run = now_ms();
  const int min_sessions = a.trace ? kMinTracedSessions : kMinSessions;
  std::vector<Session> sessions;
  while (static_cast<int>(sessions.size()) < min_sessions ||
         now_ms() - t_run < a.seconds * 1000.0) {
    const double t0 = now_ms();
    const int index = static_cast<int>(sessions.size());
    // A traced run alternates untraced and traced sessions.
    sessions.push_back(run_session(a, w, self, index, a.trace && index % 2));
    if (!sessions.back().error.empty()) {
      std::cerr << "perfbench: session " << index << ": "
                << sessions.back().error << "\n";
      return 1;
    }
    if (now_ms() - t_run + (now_ms() - t0) > kRunBudgetMs) break;
  }

  Report rep;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  rep.note("workload " + std::string(w.name) + ": " + w.why);
  rep.note("sessions " + std::to_string(sessions.size()) + ", " +
           std::to_string(w.batches - 1) +
           " timed batches each (batch 0 is warm-up)");
  rep.note("threads: " + std::to_string(session_threads(w)) +
           " (key server + load), nproc " + std::to_string(nproc) +
           (session_threads(w) <= nproc ? ": within" : ": OVER"));
  std::ostringstream os;
  os << "per-session batch p50 ms:";
  for (const Session& s : sessions) os << ' ' << median(batch_latencies(s));
  rep.note(os.str());
  rep.note("control retransmits / control frames: " +
           std::to_string(sum_stat(sessions, false, "control_retransmits") /
                          sum_stat(sessions, false, "control_frames")));
  rep.note("load thread CPU / wall (busiest fleet): " +
           std::to_string(load_cpu_per_wall(sessions, false)));
  const Outcome o = check_sessions(w, sessions, rep);
  if (a.trace)
    report_per_layer(w, sessions, rep);
  else
    report_end_to_end(w, sessions, o, rep);
  rep.print(o.attempted, o.attempted - o.recovered, o.digests);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: rekey_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  const auto w = find_workload(args->workload);
  if (!w) {
    std::cerr << "rekey_perfbench: unknown workload " << args->workload
              << "\n";
    return 2;
  }
  try {
    if (args->role == "daemon") return daemon_main(*args, *w);
    if (args->role == "load") return load_main(*args, *w);
    return bench_main(*args, *w, argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "rekey_perfbench: " << e.what() << "\n";
    return 1;
  }
}
