#ifndef SPE_DATA_CSV_H_
#define SPE_DATA_CSV_H_

#include <string>

#include "spe/data/dataset.h"
#include "spe/data/text_reader.h"

namespace spe {

/// Loads a binary-classification dataset from a CSV file.
///
/// Every column except `label_column` becomes a numerical feature.
/// `has_header` skips the first line, whatever it holds. The file is
/// read once, in kTextReadChunkBytes chunks (text_reader.h), and parsed
/// in place into per-column storage.
///
/// Grammar:
///   - Lines end at '\n' or "\r\n"; the last line may lack its newline.
///     Empty lines are skipped.
///   - Fields are separated by ','. No quoting: a field never holds a
///     comma. The first data row fixes the field count; every later row
///     must have exactly as many fields.
///   - Spaces and tabs around a field are ignored.
///   - A feature field is a decimal or scientific number with an
///     optional sign ('+' allowed), or a nan/inf/infinity spelling in any
///     case. It parses to the correctly rounded double: bit-identical to
///     strtod's answer for the same spelling, under any locale.
///   - The label field is the integer 0 or 1 (an optional sign and
///     surrounding blanks allowed; "1.0" is not an integer).
///
/// Refusal contract: content that breaks the grammar throws
/// DataFormatError with a "path:line: field N: reason 'text'" message:
/// an empty field, trailing junk ("1.5x"), a hex float, a finite
/// spelling outside double's range ("1e400", "1e-400"), a label other
/// than 0/1, a first row too short to hold `label_column`, or a row of
/// the wrong width. Nothing is returned for a refused file: a silently
/// truncated or misread dataset would invalidate every downstream
/// experiment. A file that cannot be opened aborts (CHECK) with
/// "cannot open"; a read error throws TransientIoError.
Dataset LoadCsv(const std::string& path, std::size_t label_column,
                bool has_header = true);

/// Writes `data` as CSV with columns f0..f{d-1},label. Used by the figure
/// benches to dump series/grids that plotting scripts can pick up.
void SaveCsv(const Dataset& data, const std::string& path);

}  // namespace spe

#endif  // SPE_DATA_CSV_H_
