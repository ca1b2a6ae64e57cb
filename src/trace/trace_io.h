// Trace persistence: one compact binary format for generated traces plus
// CSV export for interoperability with external cache simulators.
//
// Binary layout (little-endian, magic "SCDNSTR1"): u64 total request
// count, then blocks of u32 count followed by the block's SoA columns as
// packed arrays (f64 timestamp_s[], u64 object[], u64 size[],
// u16 location[]); a zero count terminates. Chunked both ways, so neither
// writing nor reading ever materializes the trace. A location's name is
// not stored; tools put it in the file name.
#pragma once

#include <memory>
#include <string>

#include "trace/record.h"
#include "trace/stream.h"

namespace starcdn::trace {

/// Drain `stream` to the binary format, one block per next(); throws
/// std::runtime_error on IO failure.
void write_binary_stream(RequestStream& stream, const std::string& path);

/// Open a binary trace for chunked reading; blocks come back with the
/// sizes they were written with. Throws std::runtime_error when the file
/// cannot be opened or has a bad magic or header, and, lazily from next(),
/// when a block's count exceeds the bytes left in the file (truncation or
/// a corrupt count; nothing is allocated for it) — naming the path and the
/// block ordinal.
[[nodiscard]] std::unique_ptr<RequestStream> open_binary_stream(
    const std::string& path);

/// CSV with header "timestamp_s,object,size,location".
void write_csv(const LocationTrace& trace, const std::string& path);
/// Read write_csv's format. Throws std::runtime_error naming
/// "path:line:column" on a short row, a field that is not a number, a
/// value out of its type's range (a location must fit in u16), or a row
/// that breaks LocationTrace's contract: a non-finite timestamp, one below
/// the previous row's, or a location other than the first row's.
[[nodiscard]] LocationTrace read_csv_trace(const std::string& path);

}  // namespace starcdn::trace
