// DPSS wire-level compression (paper section 5, future work).
//
// "We expect that by augmenting the block data services with additional
// processing capabilities, the DPSS will become even more useful.  For
// example, 'wire level' compression would benefit a wide array of
// applications.  In the case of lossy compression techniques, the degree
// of lossiness could be a function of network line parameters and under
// application control."
//
// Two codecs over float32 scientific data:
//   * kLossless -- byte-plane RLE: the block is reinterpreted as four
//     byte planes (all MSBs, then next byte, ...); smooth fields make the
//     exponent/sign planes long runs.  Exact round trip.
//   * kLossyQuant -- linear quantization to `quant_bits` (8 or 16) against
//     the block's [min, max], then byte-plane RLE.  The bits knob is the
//     "degree of lossiness under application control".
//
// Wire format: [u8 codec][u8 quant_bits][u64 raw_len][f32 lo][f32 hi]
//              [u64 comp_len][payload].
#pragma once

#include <cstdint>
#include <vector>

#include "core/status.h"

namespace visapult::dpss {

enum class Codec : std::uint8_t {
  kNone = 0,
  kLossless = 1,
  kLossyQuant = 2,
};

struct CompressionConfig {
  Codec codec = Codec::kNone;
  int quant_bits = 8;  // 8 or 16; only for kLossyQuant
};

// Compress a block of raw float32 bytes (size must be a multiple of 4 for
// the float-aware codecs; kNone accepts anything).
core::Result<std::vector<std::uint8_t>> compress_block(
    const std::vector<std::uint8_t>& raw, const CompressionConfig& config);

// Invert compress_block.  For kLossyQuant the result differs from the
// input by at most (max-min) / (2^bits - 1) per value.  A frame claiming
// more than `max_raw_bytes` of raw data (the most the caller accepts, e.g.
// its layout's block size) is kDataLoss before anything is allocated.
core::Result<std::vector<std::uint8_t>> decompress_block(
    const std::vector<std::uint8_t>& wire, std::uint64_t max_raw_bytes);

// Compression ratio raw/wire for reporting (1.0 = no gain).
double compression_ratio(std::size_t raw_bytes, std::size_t wire_bytes);

// Worst-case absolute quantization error for a value range and bit depth.
double quantization_error_bound(float lo, float hi, int bits);

}  // namespace visapult::dpss
