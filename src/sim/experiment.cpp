#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sim/shard.hpp"

namespace facs::sim {

void RunningStat::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / n_;
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / (n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::ci95() const noexcept {
  return n_ > 1 ? 1.96 * stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

namespace {

double extract(const Metrics& m, Measure measure) {
  switch (measure) {
    case Measure::PercentAccepted:
      return m.percentAccepted();
    case Measure::BlockingProbability:
      return m.blockingProbability();
    case Measure::DroppingProbability:
      return m.droppingProbability();
    case Measure::MeanUtilization:
      return m.meanUtilization();
  }
  return m.percentAccepted();
}

/// Replication seed: depends only on (base_seed, rep), never on the curve,
/// so curves share common random numbers — the standard variance-reduction
/// device for policy comparisons.
std::uint64_t replicationSeed(std::uint64_t base_seed, int rep) {
  return splitmix64(base_seed +
                    std::uint64_t{0x51ED2701} * static_cast<std::uint64_t>(rep));
}

}  // namespace

SweepResult runSweep(const SweepSpec& sweep,
                     const std::vector<CurveSpec>& curves, Measure measure) {
  return runSweep(cellular::PolicyRuntime::defaultRuntime(), sweep, curves,
                  measure);
}

SweepResult runSweep(const cellular::PolicyRuntime& runtime,
                     const SweepSpec& sweep,
                     const std::vector<CurveSpec>& input_curves,
                     Measure measure) {
  if (sweep.xs.empty()) {
    throw std::invalid_argument("sweep needs at least one x value");
  }
  if (sweep.replications < 1) {
    throw std::invalid_argument("sweep needs >= 1 replication");
  }

  // Resolve spec-string curves up front (typos fail before any run starts);
  // an explicit factory always wins over a spec.
  std::vector<CurveSpec> curves = input_curves;
  for (CurveSpec& c : curves) {
    if (c.make_controller) continue;
    if (c.policy.empty()) {
      throw std::invalid_argument("curve '" + c.label +
                                  "' needs a factory or a policy spec");
    }
    c.make_controller = runtime.makeFactory(c.policy);
  }

  // Every (curve, x, replication) combination is an independent simulation:
  // the seed scheme above makes the runs order-free, so they fan out over
  // the engine's worker pool. Determinism is preserved by writing each run's
  // extracted measure into its own slot and folding the Welford accumulator
  // serially, in replication order, after all runs finish — the parallel
  // path is bit-identical to the serial one.
  const std::size_t reps = static_cast<std::size_t>(sweep.replications);
  const std::size_t per_curve = sweep.xs.size() * reps;
  const std::size_t total = curves.size() * per_curve;
  // Full metrics per run (not just the extracted measure): the JSON
  // rendering ships every counter of every replication, so CI diffs whole
  // figures. Each task writes only its own slot — the parallel fan-out
  // below stays bit-identical to the serial fold.
  std::vector<Metrics> values(total);

  const auto runTask = [&](std::size_t task) {
    const std::size_t c = task / per_curve;
    const std::size_t xi = (task % per_curve) / reps;
    const int rep = static_cast<int>(task % reps);
    SimulationConfig cfg = curves[c].base;
    cfg.total_requests = sweep.xs[xi];
    cfg.seed = replicationSeed(sweep.base_seed, rep);
    values[task] = runSimulation(cfg, curves[c].make_controller);
  };

  // Auto thread count divides the machine by the widest per-run shard
  // fan-out, so a sweep of sharded runs does not oversubscribe cores.
  // An explicit threads value is honoured verbatim.
  int max_shards = 1;
  for (const CurveSpec& c : curves) {
    max_shards = std::max(max_shards, std::max(1, c.base.shards));
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned auto_workers =
      std::max(1u, hardware / static_cast<unsigned>(max_shards));
  const std::size_t workers = std::min<std::size_t>(
      std::max<std::size_t>(total, 1),
      sweep.threads > 0 ? static_cast<unsigned>(sweep.threads) : auto_workers);

  // Each shard pulls tasks off one shared counter; the first throw stops
  // the others, and the pool rethrows it. A one-shard pool runs inline.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  ShardPool pool{static_cast<int>(workers)};
  pool.run([&](int) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= total) return;
      try {
        runTask(task);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });

  SweepResult result;
  result.spec = sweep;
  result.curves.reserve(curves.size());
  for (std::size_t c = 0; c < curves.size(); ++c) {
    CurveResult cr;
    cr.label = curves[c].label;
    for (std::size_t xi = 0; xi < sweep.xs.size(); ++xi) {
      RunningStat stat;
      PointResult point;
      point.runs.reserve(reps);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Metrics& m = values[c * per_curve + xi * reps + rep];
        stat.add(extract(m, measure));
        point.runs.push_back(std::move(m));  // values dies with the fold
      }
      point.x = sweep.xs[xi];
      point.mean = stat.mean();
      point.stddev = stat.stddev();
      point.ci95 = stat.ci95();
      point.replications = stat.count();
      cr.points.push_back(std::move(point));
    }
    result.curves.push_back(std::move(cr));
  }
  return result;
}

void printTable(std::ostream& os, const SweepResult& result) {
  os << "# " << result.spec.title << "\n";
  os << "# y: " << result.spec.y_label
     << " (mean +/- 95% CI over " << result.spec.replications
     << " replications)\n";

  os << std::left << std::setw(14) << result.spec.x_label;
  for (const CurveResult& c : result.curves) {
    os << std::setw(22) << c.label;
  }
  os << "\n";

  for (std::size_t i = 0; i < result.spec.xs.size(); ++i) {
    os << std::left << std::setw(14) << result.spec.xs[i];
    for (const CurveResult& c : result.curves) {
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(2) << c.points[i].mean
           << " +/- " << std::setprecision(2) << c.points[i].ci95;
      os << std::setw(22) << cell.str();
    }
    os << "\n";
  }
  os.flush();
}

namespace {

/// Escapes a label for a JSON string literal (quotes, backslashes,
/// control characters — labels are operator text, not trusted data).
std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Indents every line of a multi-line JSON fragment by \p pad.
std::string indented(const std::string& text, const std::string& pad) {
  std::string out = pad;
  for (const char c : text) {
    out += c;
    if (c == '\n') out += pad;
  }
  return out;
}

}  // namespace

void printJson(std::ostream& os, const SweepResult& result) {
  os << "{\n"
     << "  \"title\": \"" << jsonEscape(result.spec.title) << "\",\n"
     << "  \"x_label\": \"" << jsonEscape(result.spec.x_label) << "\",\n"
     << "  \"y_label\": \"" << jsonEscape(result.spec.y_label) << "\",\n"
     << "  \"replications\": " << result.spec.replications << ",\n"
     << "  \"base_seed\": " << result.spec.base_seed << ",\n"
     << "  \"curves\": [\n";
  for (std::size_t c = 0; c < result.curves.size(); ++c) {
    const CurveResult& curve = result.curves[c];
    os << "    {\n"
       << "      \"label\": \"" << jsonEscape(curve.label) << "\",\n"
       << "      \"points\": [\n";
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      const PointResult& p = curve.points[i];
      os << "        {\n"
         << "          \"x\": " << p.x << ",\n"
         << "          \"mean\": " << shortestNumber(p.mean) << ",\n"
         << "          \"stddev\": " << shortestNumber(p.stddev) << ",\n"
         << "          \"ci95\": " << shortestNumber(p.ci95) << ",\n"
         << "          \"runs\": [\n";
      for (std::size_t r = 0; r < p.runs.size(); ++r) {
        os << indented(p.runs[r].toJson(), "            ")
           << (r + 1 < p.runs.size() ? "," : "") << "\n";
      }
      os << "          ]\n"
         << "        }" << (i + 1 < curve.points.size() ? "," : "") << "\n";
    }
    os << "      ]\n"
       << "    }" << (c + 1 < result.curves.size() ? "," : "") << "\n";
  }
  os << "  ]\n"
     << "}\n";
  os.flush();
}

void printCsv(std::ostream& os, const SweepResult& result) {
  os << result.spec.x_label;
  for (const CurveResult& c : result.curves) {
    os << "," << c.label << "_mean," << c.label << "_sd";
  }
  os << "\n";
  for (std::size_t i = 0; i < result.spec.xs.size(); ++i) {
    os << result.spec.xs[i];
    for (const CurveResult& c : result.curves) {
      os << "," << c.points[i].mean << "," << c.points[i].stddev;
    }
    os << "\n";
  }
  os.flush();
}

}  // namespace facs::sim
