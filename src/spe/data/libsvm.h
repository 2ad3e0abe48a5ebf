#ifndef SPE_DATA_LIBSVM_H_
#define SPE_DATA_LIBSVM_H_

#include <string>

#include "spe/data/dataset.h"

namespace spe {

/// Loads a dataset in LIBSVM/SVMlight sparse text format:
///
///   <label> <index>:<value> <index>:<value> ...
///
/// Indices are 1-based and may be sparse; unlisted features are 0 (the
/// format's convention). Labels may be {0, 1}, {-1, +1} (mapped to
/// {0, 1}) or {1, 2} (mapped to {0, 1}, another common encoding).
/// `num_features` forces the width; 0 infers it from the largest index
/// seen. Lines are read like LoadCsv's (CRLF, no final newline); empty
/// lines and lines starting with '#' are skipped, and a token starting
/// with '#' ends a row. Labels, indices and values follow the CSV field
/// grammar (csv.h): a malformed one, or a label outside those above,
/// throws DataFormatError with "path:line", and so does an index below 1
/// or above `num_features` (above 2^24 when the width is inferred).
Dataset LoadLibsvm(const std::string& path, std::size_t num_features = 0);

/// Writes `data` in LIBSVM format (zero values are omitted, per the
/// format's sparse convention).
void SaveLibsvm(const Dataset& data, const std::string& path);

}  // namespace spe

#endif  // SPE_DATA_LIBSVM_H_
