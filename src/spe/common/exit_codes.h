#ifndef SPE_COMMON_EXIT_CODES_H_
#define SPE_COMMON_EXIT_CODES_H_

namespace spe {

/// Unified exit-code taxonomy for spe_cli and spe_serve, asserted
/// exactly by the pipeline ctests and documented in docs/robustness.md.
/// Orchestrators can branch on these: retry a 3, page on a 4, and treat
/// a 5 as a chaos-harness artifact rather than an incident.
enum ExitCode : int {
  kExitOk = 0,
  /// Unclassified runtime failure (the catch-all it always was).
  kExitRuntime = 1,
  /// Bad flags or malformed invocation (pre-existing convention).
  kExitUsage = 2,
  /// A file could not be opened/read/written, after bounded retries.
  kExitIo = 3,
  /// An artifact or checkpoint failed integrity validation: bad magic,
  /// CRC mismatch, truncation, parse failure, or a checkpoint written
  /// by a different run (config/data fingerprint mismatch).
  kExitCorruptArtifact = 4,
  /// An SPE_FAULTS-injected failure survived retries. Distinct from
  /// kExitIo so chaos runs never masquerade as real disk trouble.
  kExitFault = 5,
};

/// Why an artifact could not be loaded, as the model decoder
/// (spe/io/model_io.h) reports it. kIo is a real filesystem failure that
/// outlived its retries; kFault is an SPE_FAULTS-injected one; kCorrupt
/// is anything wrong with the bytes themselves.
enum class ArtifactError { kNone, kIo, kCorrupt, kFault };

/// Maps a decoder error onto the taxonomy. The decoder reports a kind,
/// not an exit code, which keeps spe/io free of process-exit policy.
inline int ClassifyArtifactErrorExit(ArtifactError error) {
  if (error == ArtifactError::kIo) return kExitIo;
  if (error == ArtifactError::kFault) return kExitFault;
  return error == ArtifactError::kNone ? kExitOk : kExitCorruptArtifact;
}

}  // namespace spe

#endif  // SPE_COMMON_EXIT_CODES_H_
