#include "clog2/clog2.hpp"

#include <gtest/gtest.h>

#include "util/fs.hpp"
#include "util/prng.hpp"

namespace {

clog2::File sample_file() {
  clog2::File f;
  f.nranks = 4;
  f.comment = "unit-test trace";
  f.records.emplace_back(clog2::EventDef{100, "MsgArrive", "yellow", "Channel: %s"});
  f.records.emplace_back(clog2::StateDef{1, 101, 102, "PI_Read", "red", "Line: %d"});
  f.records.emplace_back(clog2::ConstDef{"world_size", 4});
  f.records.emplace_back(clog2::EventRec{0.125, 2, 101, "Line: 42"});
  f.records.emplace_back(clog2::EventRec{0.250, 2, 102, ""});
  clog2::MsgRec m;
  m.timestamp = 0.2;
  m.rank = 0;
  m.kind = clog2::MsgRec::Kind::kSend;
  m.partner = 2;
  m.tag = 17;
  m.size = 4096;
  f.records.emplace_back(m);
  f.records.emplace_back(clog2::SyncRec{2, 1.5, 1.498});
  return f;
}

TEST(Clog2, SerializeParseRoundTrip) {
  const clog2::File f = sample_file();
  const auto bytes = clog2::serialize(f);
  const clog2::File g = clog2::parse(bytes);

  EXPECT_EQ(g.version, clog2::kFormatVersion);
  EXPECT_EQ(g.nranks, 4);
  EXPECT_EQ(g.comment, "unit-test trace");
  ASSERT_EQ(g.records.size(), f.records.size());

  const auto& def = std::get<clog2::StateDef>(g.records[1]);
  EXPECT_EQ(def.state_id, 1);
  EXPECT_EQ(def.start_event_id, 101);
  EXPECT_EQ(def.end_event_id, 102);
  EXPECT_EQ(def.name, "PI_Read");
  EXPECT_EQ(def.color, "red");

  const auto& ev = std::get<clog2::EventRec>(g.records[3]);
  EXPECT_DOUBLE_EQ(ev.timestamp, 0.125);
  EXPECT_EQ(ev.rank, 2);
  EXPECT_EQ(ev.text, "Line: 42");

  const auto& msg = std::get<clog2::MsgRec>(g.records[5]);
  EXPECT_EQ(msg.kind, clog2::MsgRec::Kind::kSend);
  EXPECT_EQ(msg.partner, 2);
  EXPECT_EQ(msg.tag, 17);
  EXPECT_EQ(msg.size, 4096u);

  const auto& sync = std::get<clog2::SyncRec>(g.records[6]);
  EXPECT_DOUBLE_EQ(sync.local_time, 1.5);
  EXPECT_DOUBLE_EQ(sync.ref_time, 1.498);
}

TEST(Clog2, EmptyFileRoundTrip) {
  clog2::File f;
  f.nranks = 0;
  const auto g = clog2::parse(clog2::serialize(f));
  EXPECT_TRUE(g.records.empty());
}

TEST(Clog2, FileIoRoundTrip) {
  util::TempDir dir;
  const auto path = dir.file("trace.clog2");
  clog2::write_file(path, sample_file());
  const clog2::File g = clog2::read_file(path);
  EXPECT_EQ(g.records.size(), sample_file().records.size());
}

TEST(Clog2, BadMagicRejected) {
  auto bytes = clog2::serialize(sample_file());
  bytes[0] = 'X';
  EXPECT_THROW(clog2::parse(bytes), util::IoError);
}

TEST(Clog2, BadVersionRejected) {
  auto bytes = clog2::serialize(sample_file());
  bytes[8] = 0xEE;  // version field follows the 8-byte magic
  EXPECT_THROW(clog2::parse(bytes), util::IoError);
}

TEST(Clog2, TruncationRejectedEverywhere) {
  // Chopping the file at any byte boundary must throw, never crash or
  // silently succeed.
  const auto bytes = clog2::serialize(sample_file());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(clog2::parse(prefix), util::IoError) << "cut at " << cut;
  }
}

TEST(Clog2, CorruptRecordKindRejected) {
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::ConstDef{"x", 1});
  auto bytes = clog2::serialize(f);
  // The first record's kind byte sits right after header+count; find it by
  // locating the known kind value (3 = ConstDef) and stomping it.
  bool stomped = false;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == 3) {
      bytes[i] = 200;
      stomped = true;
      break;
    }
  }
  ASSERT_TRUE(stomped);
  EXPECT_THROW(clog2::parse(bytes), util::IoError);
}

// The one place StreamReader's language is narrower than parse()'s: a
// string over kMaxRecordBytes is a safety bound on outside input (a hostile
// length must not make an ingest buffer wait forever), so the stream
// rejects it by name while the whole-file parser accepts it.
TEST(Clog2, StreamReaderBoundsStringsParseAccepts) {
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::EventRec{
      0.5, 0, 7, std::string(clog2::StreamReader::kMaxRecordBytes + 1, 'x')});
  const auto bytes = clog2::serialize(f);
  EXPECT_EQ(std::get<clog2::EventRec>(clog2::parse(bytes).records.at(0)).text.size(),
            clog2::StreamReader::kMaxRecordBytes + 1);

  clog2::StreamReader reader;
  reader.feed(bytes.data(), bytes.size());
  clog2::Record rec;
  try {
    reader.next(&rec);
    FAIL() << "StreamReader accepted an over-bound string";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 16777216-byte record bound"),
              std::string::npos)
        << e.what();
  }
}

TEST(Clog2, CountHelper) {
  const clog2::File f = sample_file();
  EXPECT_EQ(f.count<clog2::EventRec>(), 2u);
  EXPECT_EQ(f.count<clog2::MsgRec>(), 1u);
  EXPECT_EQ(f.count<clog2::StateDef>(), 1u);
}

TEST(Clog2, TextDumpMentionsEverything) {
  const std::string text = clog2::to_text(sample_file());
  EXPECT_NE(text.find("PI_Read"), std::string::npos);
  EXPECT_NE(text.find("MsgArrive"), std::string::npos);
  EXPECT_NE(text.find("world_size"), std::string::npos);
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("sync"), std::string::npos);
}

TEST(Clog2, LargeTraceRoundTrip) {
  util::SplitMix64 rng(3);
  clog2::File f;
  f.nranks = 8;
  for (int i = 0; i < 5000; ++i) {
    clog2::EventRec e;
    e.timestamp = rng.uniform(0, 100);
    e.rank = static_cast<std::int32_t>(rng.below(8));
    e.event_id = static_cast<std::int32_t>(rng.below(50));
    f.records.emplace_back(e);
  }
  const auto g = clog2::parse(clog2::serialize(f));
  ASSERT_EQ(g.records.size(), 5000u);
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto& a = std::get<clog2::EventRec>(f.records[i]);
    const auto& b = std::get<clog2::EventRec>(g.records[i]);
    EXPECT_DOUBLE_EQ(a.timestamp, b.timestamp);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.event_id, b.event_id);
  }
}

// The wire-form helpers mpe::Logger keeps its records with agree with
// append_record / parse byte for byte.
TEST(Clog2, WireHelpersMatchRecordCodec) {
  const clog2::EventRec ev{1.25, 2, 7, "popup text"};
  const clog2::MsgRec msg{2.5, 1, clog2::MsgRec::Kind::kRecv, 3, 9, 64};
  const clog2::SyncRec sync{1, 0.5, 0.75};
  util::ByteWriter a;
  clog2::append_record(a, clog2::Record{ev});
  util::ByteWriter b;
  clog2::append_event(b, ev.timestamp, ev.rank, ev.event_id, ev.text);
  EXPECT_EQ(a.bytes(), b.bytes());
  const std::size_t ev_size = a.size();
  clog2::append_record(a, clog2::Record{msg});
  clog2::append_record(b, msg);
  const std::size_t msg_size = a.size() - ev_size;
  clog2::append_record(a, clog2::Record{sync});
  clog2::append_record(b, sync);
  EXPECT_EQ(a.bytes(), b.bytes());

  std::vector<std::uint8_t> bytes = b.take();
  const std::uint8_t* p = bytes.data();
  EXPECT_EQ(clog2::timed_record_size(p, bytes.size()), ev_size);
  EXPECT_EQ(clog2::timed_record_size(p + ev_size, bytes.size() - ev_size), msg_size);
  EXPECT_EQ(clog2::timed_record_size(p + ev_size + msg_size,
                                     bytes.size() - ev_size - msg_size),
            bytes.size() - ev_size - msg_size);
  EXPECT_THROW(clog2::timed_record_size(p, ev_size - 1), util::IoError);

  EXPECT_EQ(clog2::record_time(p), 1.25);
  EXPECT_EQ(clog2::record_time(p + ev_size), 2.5);
  clog2::set_record_time(bytes.data() + ev_size, -3.75);
  util::ByteWriter c;
  clog2::append_record(c, clog2::MsgRec{-3.75, 1, clog2::MsgRec::Kind::kRecv, 3, 9, 64});
  EXPECT_TRUE(std::equal(c.bytes().begin(), c.bytes().end(), bytes.begin() +
                         static_cast<std::ptrdiff_t>(ev_size)));

  util::ByteWriter def;
  clog2::append_record(def, clog2::Record{clog2::ConstDef{"n", 1}});
  EXPECT_THROW(clog2::timed_record_size(def.bytes().data(), def.size()), util::IoError);

  util::ByteWriter file;
  clog2::append_header(file, 4, "wire", 3);
  file.raw(bytes.data(), bytes.size());
  clog2::append_end(file);
  const clog2::File f = clog2::parse(file.bytes());
  ASSERT_EQ(f.records.size(), 3u);
  EXPECT_EQ(std::get<clog2::MsgRec>(f.records[1]).timestamp, -3.75);
  EXPECT_EQ(f.comment, "wire");
}

}  // namespace
