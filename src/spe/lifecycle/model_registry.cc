#include "spe/lifecycle/model_registry.h"

#include <utility>

#include "spe/common/check.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/trace.h"

namespace spe {
namespace lifecycle {

ModelVersion::ModelVersion(std::unique_ptr<Classifier> model,
                           VersionManifest manifest,
                           const DriftConfig& drift_config)
    : model_(std::move(model)), manifest_(std::move(manifest)) {
  SPE_CHECK(model_ != nullptr);
  SPE_CHECK_GT(manifest_.num_features, 0u);
  prefix_voter_ = dynamic_cast<const PrefixVoter*>(model_.get());
  // Resolving the kernel compiles the flat program if the model can
  // lower — deliberately on the loading thread (see class comment).
  kernel_ = kernels::ActiveKernel(*model_);
  manifest_.kernel = kernel_;
  manifest_.model_name = model_->Name();
  if (const auto* profiled = dynamic_cast<const HardnessProfiled*>(
          model_.get())) {
    if (const HardnessHistogram* histogram = profiled->training_hardness()) {
      manifest_.has_hardness_histogram = true;
      drift_ = std::make_unique<HardnessDriftDetector>(*histogram,
                                                       drift_config);
    }
  }
}

ModelRegistry::ModelRegistry(DriftConfig drift_config)
    : drift_config_(drift_config),
      active_version_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "spe_lifecycle_active_version")),
      shadow_version_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "spe_lifecycle_shadow_version")),
      versions_loaded_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "spe_lifecycle_versions_loaded")),
      loads_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_loads_total")),
      load_failures_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_load_failures_total")),
      activations_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_activations_total")) {}

ModelRegistry::LoadResult ModelRegistry::LoadFromFile(
    const std::string& path) {
  const obs::TraceSpan span("lifecycle.load");
  LoadResult result;
  // Transient read failures retry under load_retry_ inside the decoder;
  // integrity failures never retry: bits do not heal.
  DecodedBundle decoded = DecodeModelBundleFile(path, load_retry_);
  if (!decoded.ok()) {
    load_failures_total_.Add();
    result.error = std::move(decoded.message);
    result.error_kind = decoded.error;
    return result;
  }
  ModelBundle& bundle = decoded.bundle;
  VersionManifest manifest;
  manifest.source_path = path;
  manifest.format_version = bundle.format_version;
  manifest.num_features = bundle.num_features;
  manifest.payload_bytes = bundle.payload_bytes;
  manifest.crc32_hex = bundle.crc32_hex;
  result.version = Register(std::move(bundle.model), std::move(manifest));
  return result;
}

std::shared_ptr<const ModelVersion> ModelRegistry::Register(
    std::unique_ptr<Classifier> model, VersionManifest manifest) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest.version = next_version_++;
  // Construction under the mutex keeps version numbers dense and in
  // load order; the expensive part (kernel compile) is rare and only
  // ever contends with another load, never with scoring.
  auto version = std::make_shared<const ModelVersion>(
      std::move(model), std::move(manifest), drift_config_);
  versions_.push_back(version);
  versions_loaded_gauge_.Set(static_cast<double>(versions_.size()));
  loads_total_.Add();
  return version;
}

std::shared_ptr<const ModelVersion> ModelRegistry::Install(
    std::unique_ptr<Classifier> model, std::size_t num_features,
    std::string source_path) {
  VersionManifest manifest;
  manifest.source_path = std::move(source_path);
  manifest.num_features = num_features;
  return Register(std::move(model), std::move(manifest));
}

std::string ModelRegistry::Activate(
    std::shared_ptr<const ModelVersion> version) {
  SPE_CHECK(version != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const ModelVersion> current =
      active_.load(std::memory_order_acquire);
  if (current != nullptr &&
      current->num_features() != version->num_features()) {
    return "cannot activate version " + std::to_string(version->version()) +
           ": feature width " + std::to_string(version->num_features()) +
           " does not match the serving schema width " +
           std::to_string(current->num_features());
  }
  // The swap itself: one atomic store. Scoring threads that already
  // snapshotted `current` finish their batch on it; the next snapshot
  // sees `version`. Nothing waits, nothing drops.
  active_.store(std::move(version), std::memory_order_release);
  const auto now_active = active_.load(std::memory_order_acquire);
  active_version_gauge_.Set(static_cast<double>(now_active->version()));
  activations_total_.Add();
  return "";
}

void ModelRegistry::SetShadow(std::shared_ptr<const ModelVersion> version) {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_version_gauge_.Set(
      version == nullptr ? 0.0 : static_cast<double>(version->version()));
  shadow_.store(std::move(version), std::memory_order_release);
}

std::vector<ModelRegistry::ManifestEntry> ModelRegistry::Manifests() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto active = active_.load(std::memory_order_acquire);
  const auto shadow = shadow_.load(std::memory_order_acquire);
  std::vector<ManifestEntry> entries;
  entries.reserve(versions_.size());
  for (const auto& v : versions_) {
    ManifestEntry entry;
    entry.manifest = v->manifest();
    entry.role = v == active ? "active" : v == shadow ? "shadow" : "loaded";
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace lifecycle
}  // namespace spe
