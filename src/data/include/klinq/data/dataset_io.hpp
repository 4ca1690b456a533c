// File helpers for the model registry's on-disk store: versioned snapshot
// filenames, and durable writes (fsync, then an atomic rename).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace klinq::data {

/// Canonical on-disk name of one versioned per-qubit model snapshot:
/// "qubit<q>_v<version>.snap". Versions are written unpadded (they are
/// parsed, never lexically sorted).
std::string versioned_snapshot_filename(std::size_t qubit,
                                        std::uint64_t version);

/// Parses a name produced by versioned_snapshot_filename back into its
/// (qubit, version) pair. Returns false for anything else — directory
/// scanners use this to skip foreign files instead of failing on them.
bool parse_versioned_snapshot_filename(std::string_view filename,
                                       std::size_t& qubit,
                                       std::uint64_t& version);

/// Writes `bytes` to `path` and fsyncs the file before closing, so the
/// contents are on stable storage when this returns. Throws io_error on any
/// failure (the partially written file may remain — callers write to a
/// temporary name and rename over the destination; see replace_file).
void write_file_durable(const std::string& path, std::string_view bytes);

/// Atomically replaces `to` with `from` (POSIX rename semantics: readers see
/// either the old file or the new one, never a mix), then fsyncs the parent
/// directory so the rename itself survives a crash. Throws io_error on
/// failure.
void replace_file(const std::string& from, const std::string& to);

}  // namespace klinq::data
