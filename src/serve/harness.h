#ifndef APOTS_SERVE_HARNESS_H_
#define APOTS_SERVE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/attacker.h"
#include "attack/detector.h"
#include "baseline/historical_average.h"
#include "core/apots_model.h"
#include "serve/feed.h"
#include "serve/frontend.h"
#include "serve/serving_supervisor.h"
#include "serve/stream_ingestor.h"
#include "traffic/dataset_generator.h"

namespace apots::serve {

/// One self-contained serving simulation: ground truth, a live dataset
/// fed through the fault model, a model trained (or just initialized) on
/// the warmup window, and the full ingestor + supervisor stack.
struct HarnessConfig {
  apots::traffic::DatasetSpec spec = apots::traffic::DatasetSpec::Small();
  /// Leading fraction of the dataset treated as already-ingested history:
  /// profiles are fitted and the model is trained on it.
  double warmup_fraction = 0.5;
  apots::core::PredictorType predictor = apots::core::PredictorType::kFc;
  /// Width divisor for PredictorHparams::Scaled (CPU-friendly sims).
  size_t width_divisor = 16;
  /// 0 = serve with initialized weights (mechanics-only runs).
  int train_epochs = 0;
  uint64_t model_seed = 42;
  int alpha = 12;
  int beta = 3;
  FeedFaultSpec feed = FeedFaultSpec::Clean();
  ServeConfig serve;
  /// Inference-path knobs (batching, parallelism, feature cache,
  /// quantization) passed through to the model stack verbatim.
  apots::core::InferenceConfig inference;
  /// Trailing anchors served per tick (tick, tick-1, ...).
  int anchors_per_tick = 4;

  /// Adversarial-attack wiring (see DESIGN.md §13). When `enabled`, the
  /// harness builds a perturbation plan against the trained weights over
  /// the streamed region, attaches it to the feed, and stands up a
  /// ResidualDetector primed on warmup truth. Whether readings are
  /// actually poisoned is still `feed.poison` — machinery attached with
  /// poisoning off is the bitwise-identity arm of the robustness bench.
  struct AttackSetup {
    bool enabled = false;
    /// Black-box SPSA instead of white-box PGD.
    bool use_spsa = false;
    apots::attack::AttackConfig attack;
    apots::attack::DetectorConfig detector;
  };
  AttackSetup attack;
};

class SimulationHarness {
 public:
  explicit SimulationHarness(HarnessConfig config);

  /// Runs one tick: polls the feed, ingests, advances the watermark,
  /// serves this tick's anchors, and maybe checkpoints. Returns false
  /// once the simulation has consumed every servable tick.
  bool RunTick();

  /// Advances the stream one tick (poll, ingest, watermark, checkpoint)
  /// WITHOUT serving. Load benches use it to ingest the whole stream up
  /// front and then drive the frontend against a fresh, quiescent state.
  bool IngestTick();

  /// Routes RunTick's serving through a serve::Frontend over the
  /// supervisor (all tick anchors submitted concurrently, results awaited
  /// in order). The frontend is rebuilt on KillAndRecover. Call before
  /// the first tick.
  void EnableFrontend(FrontendConfig config);
  /// Null unless EnableFrontend was called.
  Frontend* frontend() { return frontend_.get(); }

  /// Anchors RunTick serves at `tick` (in-range trailing window).
  std::vector<long> TickAnchors(long tick) const;

  /// Responses of the most recent RunTick.
  const std::vector<ServeResponse>& last_responses() const {
    return last_responses_;
  }
  /// Anchors of the most recent RunTick.
  const std::vector<long>& last_anchors() const { return last_anchors_; }

  /// The bitwise-identity arm: the model facade's direct prediction path
  /// (fallback disabled, so exactly InferenceRuntime + UnscaleSpeed).
  std::vector<double> DirectPredictKmh(const std::vector<long>& anchors) {
    return model_->PredictKmh(anchors);
  }

  /// Flat copy of every trainable parameter, for bitwise comparisons.
  std::vector<std::vector<float>> ParamSnapshot();

  /// Simulates a process kill and cold restart: tears down the model,
  /// ingestor and supervisor, rebuilds them with `new_seed` (different
  /// init weights, empty live stream state) and recovers both from the
  /// checkpoint store. The feed resumes at the recovered watermark + 1.
  Result<apots::nn::CheckpointStore::RecoverInfo> KillAndRecover(
      uint64_t new_seed);

  /// Serving report accumulated across restarts.
  ServeReport report() const;

  long next_tick() const { return next_tick_; }
  long warmup_end() const { return warm_end_; }
  long last_servable_tick() const;
  const apots::traffic::TrafficDataset& truth() const { return truth_; }
  apots::core::ApotsModel& model() { return *model_; }
  StreamIngestor& ingestor() { return *ingestor_; }
  ServingSupervisor& supervisor() { return *supervisor_; }
  FaultyFeed& feed() { return *feed_; }
  int target_road() const { return target_road_; }

  /// Attack surface (valid only when `config.attack.enabled`).
  const apots::attack::PerturbationPlan& attack_plan() const {
    return attack_plan_;
  }
  const apots::attack::AttackStats& attack_stats() const {
    return attack_stats_;
  }
  /// Null unless the attack setup is enabled. The detector deliberately
  /// survives KillAndRecover: it models external monitoring, not process
  /// state.
  apots::attack::ResidualDetector* detector() { return detector_.get(); }

 private:
  void BuildStack(uint64_t model_seed);
  /// Builds the perturbation plan and detector against the trained model.
  void BuildAttack();
  /// (Re-)attaches the detector to the current ingestor.
  void AttachDetector();
  /// Poll + ingest + watermark for one tick (shared by RunTick and
  /// IngestTick).
  void IngestAt(long tick);

  HarnessConfig config_;
  apots::traffic::TrafficDataset truth_;
  apots::traffic::TrafficDataset live_;
  long warm_end_;
  int target_road_;
  std::vector<apots::baseline::HistoricalAverage> profiles_;
  std::unique_ptr<apots::core::ApotsModel> model_;
  std::unique_ptr<StreamIngestor> ingestor_;
  std::unique_ptr<ServingSupervisor> supervisor_;
  std::unique_ptr<Frontend> frontend_;
  bool frontend_enabled_ = false;
  FrontendConfig frontend_config_;
  std::unique_ptr<FaultyFeed> feed_;
  apots::attack::PerturbationPlan attack_plan_;
  apots::attack::AttackStats attack_stats_;
  std::unique_ptr<apots::attack::ResidualDetector> detector_;
  long next_tick_;
  ServeReport merged_report_;  ///< reports of torn-down supervisors
  std::vector<long> last_anchors_;
  std::vector<ServeResponse> last_responses_;
};

}  // namespace apots::serve

#endif  // APOTS_SERVE_HARNESS_H_
