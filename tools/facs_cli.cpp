/// \file facs_cli.cpp
/// Operator command line for the FACS simulator: run any registered policy
/// on any catalogued scenario — or a scenario *file* (--scenario-file /
/// --dump-scenario) — single runs or replicated sweeps. See --help,
/// --list-policies and --list-scenarios.

#include <iostream>

#include "cellular/policy_registry.hpp"
#include "cli/cli.hpp"
#include "serve/service.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario_file.hpp"

int main(int argc, char** argv) {
  using namespace facs;
  // The CLI's composition scope: one policy runtime (a snapshot of the
  // registrar seed) and one scenario catalog (the built-ins) per process
  // invocation. An embedding front end would extend these per run instead.
  const cellular::PolicyRuntime runtime;
  const sim::ScenarioCatalog catalog;
  // On stderr, so diffable output never moves: a policy that reads other
  // cells ran on one group although more were asked for.
  const auto noteOneGroup = [](const sim::CliOptions& options,
                               const sim::Metrics& metrics) {
    if (options.config.commit_groups > 1 && metrics.commit_groups == 1) {
      std::cerr << "facs_cli: note: policy '" << options.policy
                << "' reads other cells, so it ran on one commit group, not "
                << options.config.commit_groups << "\n";
    }
  };
  try {
    const sim::CliOptions options =
        sim::parseCli({argv + 1, argv + argc}, runtime, catalog);
    if (options.help) {
      std::cout << sim::cliUsage(runtime, catalog);
      return 0;
    }
    if (options.list_policies) {
      std::cout << "registered policies:\n" << runtime.describeAll();
      return 0;
    }
    if (options.list_scenarios) {
      std::cout << "catalogued scenarios:\n" << catalog.describeAll();
      return 0;
    }
    if (!options.dump_scenario.empty()) {
      if (options.dump_scenario == "-") {
        // The composed run itself — scenario base plus every flag override
        // — as a scenario file. This is the parse→write fixed point the CI
        // round-trip gate checks, and it snapshots hand-tuned command
        // lines as reusable files.
        sim::ScenarioSpec spec;
        spec.name = options.scenario.empty() ? "custom" : options.scenario;
        spec.summary = options.scenario_summary;
        spec.policy = options.policy;
        spec.config = options.config;
        std::cout << sim::writeScenarioFile(spec);
      } else {
        std::cout << sim::writeScenarioFile(catalog.at(options.dump_scenario));
      }
      return 0;
    }

    if (options.serve) {
      // Streaming service mode: JSONL records on stdout (one per metrics
      // window), nothing else on stdout so `facs_cli --serve | consumer`
      // sees a clean stream. The final record's cumulative counters equal
      // the batch run's Metrics bit for bit.
      serve::ServeOptions serve_options;
      serve_options.metrics_every_s = options.metrics_every_s;
      serve_options.duration_s = options.serve_duration_s;
      noteOneGroup(options, serve::serveSimulation(
                                options.config,
                                sim::makeFactory(options, runtime),
                                serve_options, std::cout));
      return 0;
    }

    if (!options.sweep_xs.empty()) {
      sim::SweepSpec sweep;
      sweep.title = "facs_cli sweep (" + options.policy + ")";
      sweep.xs = options.sweep_xs;
      sweep.replications = options.replications;
      sweep.threads = options.threads;
      sweep.base_seed = options.config.seed;

      sim::CurveSpec curve;
      curve.label = options.policy;
      curve.base = options.config;
      curve.policy = options.policy;  // resolved by runSweep via the runtime
      const sim::SweepResult result = sim::runSweep(runtime, sweep, {curve});
      if (options.json) {
        // One document per figure, a full metrics object per (curve, x,
        // replication) — CI diffs whole figures, not single runs.
        sim::printJson(std::cout, result);
      } else if (options.csv) {
        sim::printCsv(std::cout, result);
      } else {
        sim::printTable(std::cout, result);
      }
      return 0;
    }

    const sim::Metrics metrics =
        sim::runSimulation(options.config, sim::makeFactory(options, runtime));
    noteOneGroup(options, metrics);
    if (metrics.truncated_rationales > 0) {
      // Once per run, on stderr so it never perturbs diffable output:
      // explain-mode rationales lost their tails at the inline capacity.
      std::cerr << "facs_cli: warning: " << metrics.truncated_rationales
                << " decision rationale(s) truncated at "
                << cellular::ReasonText::kCapacity
                << " chars (ReasonText::truncated())\n";
    }
    if (options.json) {
      std::cout << metrics.toJson() << "\n";
      return 0;
    }
    std::cout << "policy: " << options.policy << "\n";
    if (!options.scenario.empty()) {
      std::cout << "scenario: " << options.scenario << "\n";
    }
    std::cout << metrics.summary() << "\n"
              << "percent-accepted: " << metrics.percentAccepted() << "\n"
              << "blocking-probability: " << metrics.blockingProbability()
              << "\n"
              << "dropping-probability: " << metrics.droppingProbability()
              << "\n"
              << "mean-utilization: " << metrics.meanUtilization() << "\n";
    return 0;
  } catch (const sim::CliError& e) {
    std::cerr << "facs_cli: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "facs_cli: " << e.what() << "\n";
    return 1;
  }
}
