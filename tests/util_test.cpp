#include <gtest/gtest.h>

#include <limits>

#include "util/bytes.h"
#include "util/ipv4.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace ofh::util {
namespace {

// ------------------------------------------------------------------- ipv4

TEST(Ipv4, FormatsDottedQuad) {
  EXPECT_EQ(Ipv4Addr(192, 0, 2, 1).to_string(), "192.0.2.1");
  EXPECT_EQ(Ipv4Addr(0).to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Addr(0xffffffff).to_string(), "255.255.255.255");
}

TEST(Ipv4, ParsesValidAddresses) {
  EXPECT_EQ(Ipv4Addr::parse("10.1.2.3")->value(), Ipv4Addr(10, 1, 2, 3).value());
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xffffffffu);
}

TEST(Ipv4, RejectsMalformedAddresses) {
  EXPECT_FALSE(Ipv4Addr::parse(""));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4Addr::parse("1..2.3"));
}

TEST(Ipv4, OctetAccessor) {
  const Ipv4Addr addr(10, 20, 30, 40);
  EXPECT_EQ(addr.octet(0), 10);
  EXPECT_EQ(addr.octet(1), 20);
  EXPECT_EQ(addr.octet(2), 30);
  EXPECT_EQ(addr.octet(3), 40);
}

TEST(Cidr, NormalizesBaseToPrefixBoundary) {
  const Cidr cidr(Ipv4Addr(10, 1, 2, 3), 16);
  EXPECT_EQ(cidr.base().to_string(), "10.1.0.0");
  EXPECT_EQ(cidr.size(), 65536u);
}

TEST(Cidr, ContainsItsRangeOnly) {
  const Cidr cidr(Ipv4Addr(192, 0, 2, 0), 24);
  EXPECT_TRUE(cidr.contains(Ipv4Addr(192, 0, 2, 0)));
  EXPECT_TRUE(cidr.contains(Ipv4Addr(192, 0, 2, 255)));
  EXPECT_FALSE(cidr.contains(Ipv4Addr(192, 0, 3, 0)));
  EXPECT_FALSE(cidr.contains(Ipv4Addr(192, 0, 1, 255)));
}

TEST(Cidr, SlashZeroCoversEverything) {
  const Cidr cidr(Ipv4Addr(0), 0);
  EXPECT_TRUE(cidr.contains(Ipv4Addr(1, 2, 3, 4)));
  EXPECT_TRUE(cidr.contains(Ipv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(cidr.size(), std::uint64_t{1} << 32);
}

TEST(Cidr, ParseRoundTrip) {
  const auto cidr = Cidr::parse("100.64.0.0/10");
  ASSERT_TRUE(cidr);
  EXPECT_EQ(cidr->to_string(), "100.64.0.0/10");
  EXPECT_FALSE(Cidr::parse("1.2.3.4"));
  EXPECT_FALSE(Cidr::parse("1.2.3.4/33"));
  EXPECT_FALSE(Cidr::parse("bad/8"));
}

TEST(Cidr, FirstLast) {
  const auto cidr = *Cidr::parse("10.0.0.0/8");
  EXPECT_EQ(cidr.first().to_string(), "10.0.0.0");
  EXPECT_EQ(cidr.last().to_string(), "10.255.255.255");
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentAndLabelled) {
  Rng base(42);
  Rng fork_a = base.fork("alpha");
  Rng fork_b = base.fork("beta");
  Rng fork_a2 = base.fork("alpha");
  EXPECT_EQ(fork_a.next(), fork_a2.next());
  EXPECT_NE(fork_a.next(), fork_b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(weights), 1u);
  EXPECT_EQ(rng.weighted({0.0, 0.0}), 2u);  // all-zero sentinel
}

TEST(Rng, WeightedFollowsDistribution) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0};
  int second = 0;
  const int trials = 10'000;
  for (int i = 0; i < trials; ++i) {
    if (rng.weighted(weights) == 1) ++second;
  }
  EXPECT_NEAR(second / static_cast<double>(trials), 0.75, 0.03);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  const int trials = 20'000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.2);
}

TEST(Rng, RangeInclusive) {
  Rng rng(23);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Hash, Fnv1aMatchesKnownVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

// ------------------------------------------------------------------ bytes

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter writer;
  writer.u8(0xab).u16(0x1234).u32(0xdeadbeef).u64(0x0123456789abcdefULL);
  writer.str8("hi").str16("world");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  const auto raw = *reader.raw(8);
  EXPECT_EQ(Bytes(raw.begin(), raw.end()),
            (Bytes{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}));
  EXPECT_EQ(reader.str8(), "hi");
  EXPECT_EQ(reader.str16(), "world");
  EXPECT_TRUE(reader.done());
}

TEST(Bytes, ReaderUnderflowReturnsNullopt) {
  const Bytes data = {1, 2};
  ByteReader reader(data);
  EXPECT_TRUE(reader.u16());
  EXPECT_FALSE(reader.u8());
  EXPECT_FALSE(reader.u16());
  EXPECT_FALSE(reader.raw(1));
}

TEST(Bytes, BigEndianOrder) {
  ByteWriter writer;
  writer.u16(0x0102);
  EXPECT_EQ(writer.bytes()[0], 0x01);
  EXPECT_EQ(writer.bytes()[1], 0x02);
}

TEST(Bytes, TextConversionRoundTrip) {
  const auto bytes = to_bytes("abc\xff");
  EXPECT_EQ(to_string(bytes), std::string("abc\xff"));
}

// ----------------------------------------------------------------- sha256

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(Sha256::hex_digest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::hex_digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::hex_digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.update("hello ");
  hasher.update("world");
  const auto digest = hasher.digest();
  std::string hex;
  static constexpr char kDigits[] = "0123456789abcdef";
  for (const auto byte : digest) {
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  EXPECT_EQ(hex, Sha256::hex_digest("hello world"));
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  const std::string input(1000, 'x');
  // Self-consistency at block boundaries: chunked == one-shot.
  Sha256 hasher;
  hasher.update(input.substr(0, 63));
  hasher.update(input.substr(63, 65));
  hasher.update(input.substr(128));
  const auto chunked = hasher.digest();
  Sha256 whole;
  whole.update(input);
  EXPECT_EQ(chunked, whole.digest());
}

// ---------------------------------------------------------------- strings

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\r\nx\t"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(icontains("Hello World", "WORLD"));
  EXPECT_FALSE(icontains("Hello", "xyz"));
  EXPECT_TRUE(starts_with("M-SEARCH *", "M-SEARCH"));
  EXPECT_FALSE(starts_with("M", "M-SEARCH"));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1832893), "1,832,893");
}

TEST(Strings, Percent) {
  EXPECT_EQ(percent(0.27), "27.0%");
  EXPECT_EQ(percent(0.006, 2), "0.60%");
}

TEST(Strings, Hex) {
  EXPECT_EQ(hex({0x00, 0xff, 0x12}), "00ff12");
  EXPECT_EQ(hex({}), "");
}

// ------------------------------------------------------------------ stats

TEST(Counter, RankedOrdersByCountThenKey) {
  Counter counter;
  counter.add("b", 5);
  counter.add("a", 5);
  counter.add("c", 9);
  const auto ranked = counter.ranked();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, "c");
  EXPECT_EQ(ranked[1].first, "a");  // tie broken alphabetically
  EXPECT_EQ(ranked[2].first, "b");
  EXPECT_EQ(counter.total(), 19u);
  EXPECT_EQ(counter.distinct(), 3u);
}

TEST(Summary, TracksMinMaxMean) {
  Summary summary;
  summary.add(2);
  summary.add(8);
  summary.add(5);
  EXPECT_EQ(summary.count(), 3u);
  EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
  ASSERT_TRUE(summary.min().has_value());
  ASSERT_TRUE(summary.max().has_value());
  EXPECT_DOUBLE_EQ(*summary.min(), 2.0);
  EXPECT_DOUBLE_EQ(*summary.max(), 8.0);
}

TEST(Summary, EmptySummaryHasNoExtrema) {
  // Regression: min()/max() used to return 0.0 on an empty summary,
  // indistinguishable from a summary that really observed 0.0.
  Summary summary;
  EXPECT_FALSE(summary.min().has_value());
  EXPECT_FALSE(summary.max().has_value());
  summary.add(0.0);
  ASSERT_TRUE(summary.min().has_value());
  EXPECT_DOUBLE_EQ(*summary.min(), 0.0);
  EXPECT_DOUBLE_EQ(*summary.max(), 0.0);
}

TEST(Bytes, ReaderLatchesTypedUnderflow) {
  const Bytes data = {0x01, 0x02, 0x03};
  ByteReader reader(data);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.u16());
  EXPECT_FALSE(reader.u16());  // only one byte left
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), CodecError::kUnderflow);
  EXPECT_EQ(reader.error_offset(), 2u);
  // First failure wins: the reader stays failed, even for reads that would
  // fit, and never resynchronizes.
  EXPECT_FALSE(reader.u8());
  EXPECT_EQ(reader.position(), 2u);
}

TEST(Bytes, ReaderPeekAndSkip) {
  const Bytes data = {0xaa, 0xbb, 0xcc};
  ByteReader reader(data);
  EXPECT_EQ(reader.peek_u8(), 0xaa);
  EXPECT_EQ(reader.position(), 0u);  // peek does not consume
  EXPECT_TRUE(reader.skip(2));
  EXPECT_EQ(reader.peek_u8(), 0xcc);
  EXPECT_FALSE(reader.skip(2));  // past the end
  EXPECT_EQ(reader.error(), CodecError::kUnderflow);
}

TEST(Bytes, ReaderU24AndU64) {
  ByteWriter writer;
  writer.u24(0x00123456).u64(0x0102030405060708ull);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.u24(), 0x00123456u);
  EXPECT_EQ(reader.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(reader.done());
}

TEST(Bytes, VarintRoundTripAndRejection) {
  for (const std::uint32_t value : {0u, 127u, 128u, 321u, 16383u, 2097151u,
                                    268435455u}) {
    ByteWriter writer;
    writer.varu32(value);
    ByteReader reader(writer.bytes());
    EXPECT_EQ(reader.varu32(), value);
    EXPECT_TRUE(reader.done());
  }
  // Overlong: five continuation digits exceed the 4-digit cap.
  const Bytes overlong = {0x80, 0x80, 0x80, 0x80, 0x01};
  ByteReader long_reader(overlong);
  EXPECT_FALSE(long_reader.varu32());
  EXPECT_EQ(long_reader.error(), CodecError::kBadVarint);
  // Unterminated: buffer ends mid-varint.
  const Bytes unterminated = {0x80, 0x80};
  ByteReader cut_reader(unterminated);
  EXPECT_FALSE(cut_reader.varu32());
  EXPECT_EQ(cut_reader.error(), CodecError::kUnderflow);
}

TEST(Bytes, ExpectMatchesMagics) {
  const Bytes data = {0xff, 'S', 'M', 'B', 0x72};
  const std::uint8_t magic[4] = {0xff, 'S', 'M', 'B'};
  ByteReader reader(data);
  EXPECT_TRUE(reader.expect(magic));
  EXPECT_EQ(reader.u8(), 0x72);

  ByteReader wrong(data);
  EXPECT_FALSE(wrong.expect_text("SMB1"));
  EXPECT_EQ(wrong.error(), CodecError::kMismatch);
  EXPECT_EQ(wrong.position(), 0u);  // mismatch consumes nothing
}

TEST(Bytes, WriterRefusesSilentTruncation) {
  ByteWriter writer;
  writer.str8(std::string(255, 'a'));
  EXPECT_TRUE(writer.ok());
  writer.str8(std::string(256, 'b'));  // does not fit a u8 length prefix
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.error(), CodecError::kLengthOverflow);
  ByteWriter wide;
  wide.str16(std::string(70000, 'c'));
  EXPECT_EQ(wide.error(), CodecError::kLengthOverflow);
}

TEST(Strings, ParseI64SaturatesInsteadOfUb) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("  -17"), -17);
  EXPECT_EQ(parse_i64("+9"), 9);
  EXPECT_EQ(parse_i64("12abc"), 12);
  EXPECT_EQ(parse_i64("abc", -1), -1);
  EXPECT_EQ(parse_i64(""), 0);
  EXPECT_EQ(parse_i64("99999999999999999999999"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-99999999999999999999999"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Strings, ParseU64SaturatesInsteadOfUb) {
  EXPECT_EQ(parse_u64("1832893"), 1832893u);
  EXPECT_EQ(parse_u64("-5", 7), 7u);  // negative is not a size
  EXPECT_EQ(parse_u64("", 3), 3u);
  EXPECT_EQ(parse_u64("99999999999999999999999"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Strings, ParseNumberConsumesTheWholeText) {
  EXPECT_EQ(parse_number<unsigned>("4"), 4u);
  EXPECT_EQ(parse_number<int>("-3"), -3);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<double>("0.05"), 0.05);
  EXPECT_EQ(parse_number<double>("512"), 512.0);
  // Everything atoi/atof would have turned into 0 or a truncated value.
  EXPECT_EQ(parse_number<unsigned>("-1"), std::nullopt);  // not 4294967295
  EXPECT_EQ(parse_number<unsigned>("abc"), std::nullopt);
  EXPECT_EQ(parse_number<unsigned>("12abc"), std::nullopt);
  EXPECT_EQ(parse_number<unsigned>(""), std::nullopt);
  EXPECT_EQ(parse_number<unsigned>(" 7"), std::nullopt);
  EXPECT_EQ(parse_number<unsigned>("+7"), std::nullopt);
  EXPECT_EQ(parse_number<int>("99999999999"), std::nullopt);  // out of range
  EXPECT_EQ(parse_number<double>("1.5x"), std::nullopt);
  EXPECT_EQ(parse_number<double>(""), std::nullopt);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Count"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const auto out = table.render();
  EXPECT_NE(out.find("| Name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_NE(out.find("| 22222 "), std::string::npos);
}

}  // namespace
}  // namespace ofh::util
