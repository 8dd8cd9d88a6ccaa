// The partition block: the one encoding of records that leave memory.
//
// Every blob the engine writes to StableStorage is a thin header plus
// blocks, one block per partition's records (DESIGN.md §11):
//
//  * a dataset blob (cache spill, message-log channel): magic, partition
//    count, one block per partition (dataset.h);
//  * a bulk-state snapshot: one block (iteration/state.h);
//  * a delta-state snapshot: the solution block, then the workset block;
//  * a delta-checkpoint link: magic, `since`, `clock`, then the same two
//    blocks (core/policies.cc).
//
// A block is self-describing: a u8 layout tag, then one of two bodies.
//
//  * Columns (tag 1), used when every row shares one non-empty schema:
//    [u32 column count][u8 ValueType tag per column][u64 rows], then the
//    int64 and double columns whole, in column order, rows × 8
//    little-endian bytes each (doubles bit for bit); then each string
//    column's rows × u32 lengths, in column order; then the bytes of every
//    string, row by row.
//  * Rows (tag 0), used for empty, mixed-schema or arity-0 partitions:
//    [u64 count] then each row's SerializeRecord bytes (record.h). Every
//    row costs at least 4 bytes, so a decoded row count is always bounded
//    by the payload that follows it.
//
// A (int64, int64) row costs 16 bytes as columns and 22 as a record.

#ifndef FLINKLESS_DATAFLOW_BLOCK_CODEC_H_
#define FLINKLESS_DATAFLOW_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataflow/record.h"

namespace flinkless::dataflow {

/// The smallest block: an empty partition's layout tag and row count.
inline constexpr uint64_t kMinBlockBytes = 1 + 8;

/// Appends `rows` to `out` as one block.
void EncodeBlock(const std::vector<Record>& rows, std::vector<uint8_t>* out);

/// Reads one block starting at *offset, advancing it past the block. Fails
/// with DataLoss, without reading past the end, on a truncated block, an
/// unknown layout or value tag, or a count the remaining bytes cannot hold.
Result<std::vector<Record>> DecodeBlock(const std::vector<uint8_t>& bytes,
                                        size_t* offset);

/// Exact byte size EncodeBlock(rows, ...) appends.
uint64_t BlockSize(const std::vector<Record>& rows);

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_BLOCK_CODEC_H_
