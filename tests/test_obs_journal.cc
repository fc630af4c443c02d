/**
 * @file
 * Tests for the structured event journal: JSONL round-trips of every
 * payload type (with string escaping), envelope stamping through the
 * RunObserver, torn-append recovery, and hard errors on mid-file
 * corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/journal.hh"
#include "obs/observer.hh"

using namespace sadapt;
using namespace sadapt::obs;

namespace {

JournalEvent
makeEvent(std::uint64_t epoch, double t, std::string type)
{
    JournalEvent ev;
    ev.epoch = epoch;
    ev.simTime = t;
    ev.path = "adapt/test";
    ev.type = std::move(type);
    return ev;
}

} // namespace

TEST(Journal, WriterStampsVersionAndSequence)
{
    std::ostringstream out;
    JournalWriter w(out);
    w.write(makeEvent(0, 0.0, "run"));
    w.write(makeEvent(1, 0.5, "epoch"));
    EXPECT_EQ(w.eventsWritten(), 2u);

    const std::string text = out.str();
    EXPECT_NE(text.find("\"v\":2"), std::string::npos);
    EXPECT_NE(text.find("\"seq\":0"), std::string::npos);
    EXPECT_NE(text.find("\"seq\":1"), std::string::npos);
    // One JSON object per line, newline-terminated.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Journal, AppendShardRestampsLikeWrite)
{
    // A shard's lines appended after a run event must be the bytes a
    // single writer of all the events would have produced.
    std::vector<JournalEvent> events;
    for (std::uint64_t e = 0; e < 12; ++e) {
        JournalEvent ev = makeEvent(e, 0.25 * e, "session");
        ev.fields.emplace_back("op", std::string("de\"cision"));
        ev.fields.emplace_back("cfg", std::string("seq\":7,"));
        events.push_back(ev);
    }
    std::ostringstream shardOut, mergedOut, expectOut;
    JournalWriter shard(shardOut), merged(mergedOut), expect(expectOut);
    merged.write(makeEvent(0, 0.0, "run"));
    expect.write(makeEvent(0, 0.0, "run"));
    for (const JournalEvent &ev : events) {
        shard.write(ev);
        expect.write(ev);
    }
    ASSERT_TRUE(merged.appendShard(shardOut.str()).isOk());
    EXPECT_EQ(merged.eventsWritten(), 13u);
    EXPECT_EQ(mergedOut.str(), expectOut.str());
    EXPECT_TRUE(merged.appendShard("").isOk());
    EXPECT_EQ(merged.eventsWritten(), 13u);
}

TEST(Journal, AppendShardRejectsLinesWithoutTheEnvelopePrefix)
{
    for (const char *bad :
         {"{\"v\":2,\"seq\":0,\"epoch\":0}\n{\"seq\":1,\"v\":2}\n",
          "{\"v\":1,\"seq\":0,\"epoch\":0}\n",
          "{\"v\":2,\"seq\":,\"epoch\":0}\n",
          "{\"v\":2,\"seq\":4}\n",
          "{\"v\":2,\"seq\":0,\"epoch\":0}"}) {
        std::ostringstream out;
        JournalWriter w(out);
        EXPECT_FALSE(w.appendShard(bad).isOk()) << bad;
        // A bad shard appends nothing and consumes no seq.
        EXPECT_EQ(out.str(), "") << bad;
        EXPECT_EQ(w.eventsWritten(), 0u) << bad;
    }
}

TEST(Journal, RoundTripsEveryFieldType)
{
    std::ostringstream out;
    JournalWriter w(out);
    JournalEvent ev = makeEvent(3, 1.25, "policy");
    ev.fields.emplace_back("param", std::string("l1_capacity"));
    ev.fields.emplace_back("from", std::int64_t{2});
    ev.fields.emplace_back("to", std::int64_t{-1});
    ev.fields.emplace_back("cost_s", 0.0009765625);
    ev.fields.emplace_back("accepted", true);
    ev.fields.emplace_back("flush", false);
    ev.fields.emplace_back("detail",
                           std::string("quote \" slash \\ tab \t "
                                       "newline \n ctrl \x01 done"));
    w.write(ev);

    std::istringstream in(out.str());
    const auto read = readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    EXPECT_FALSE(read.value().truncated);
    ASSERT_EQ(read.value().events.size(), 1u);
    const JournalEvent &got = read.value().events[0];
    EXPECT_EQ(got.seq, 0u);
    EXPECT_EQ(got.epoch, 3u);
    EXPECT_DOUBLE_EQ(got.simTime, 1.25);
    EXPECT_EQ(got.path, "adapt/test");
    EXPECT_EQ(got.type, "policy");
    EXPECT_EQ(got.strField("param"), "l1_capacity");
    EXPECT_EQ(got.intField("from"), 2);
    EXPECT_EQ(got.intField("to"), -1);
    EXPECT_EQ(got.numField("cost_s"), 0.0009765625);
    EXPECT_EQ(got.boolField("accepted"), true);
    EXPECT_EQ(got.boolField("flush"), false);
    EXPECT_EQ(got.strField("detail"),
              "quote \" slash \\ tab \t newline \n ctrl \x01 done");
    // Typed accessors reject wrong types and absent keys.
    EXPECT_FALSE(got.intField("param").has_value());
    EXPECT_FALSE(got.strField("missing").has_value());
    // numField is the numeric view: exact ints read as doubles too.
    EXPECT_EQ(got.numField("from"), 2.0);
}

TEST(Journal, ObserverStampsEpochContext)
{
    std::ostringstream out;
    RunObserver obs;
    obs.attachJournal(out);
    obs.emit("cli", "run", {{"kernel", std::string("spmspv")}});
    obs.beginEpoch(7, 0.125);
    obs.emit("adapt/policy", "policy", {{"accepted", true}});
    obs.flush();

    std::istringstream in(out.str());
    const auto read = readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    ASSERT_EQ(read.value().events.size(), 2u);
    EXPECT_EQ(read.value().events[0].epoch, 0u);
    EXPECT_EQ(read.value().events[1].epoch, 7u);
    EXPECT_DOUBLE_EQ(read.value().events[1].simTime, 0.125);
    EXPECT_EQ(read.value().events[1].path, "adapt/policy");
}

TEST(Journal, TruncatedFinalLineIsRecovered)
{
    std::ostringstream out;
    JournalWriter w(out);
    for (int i = 0; i < 3; ++i) {
        JournalEvent ev = makeEvent(i, 0.1 * i, "epoch");
        ev.fields.emplace_back("cfg", std::string("type=cache"));
        w.write(ev);
    }
    std::string text = out.str();
    // Tear the final append mid-record (no trailing newline either).
    text.resize(text.size() - 25);

    std::istringstream in(text);
    const auto read = readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    EXPECT_TRUE(read.value().truncated);
    ASSERT_EQ(read.value().events.size(), 2u);
    EXPECT_EQ(read.value().events[1].epoch, 1u);
}

TEST(Journal, MidFileCorruptionIsAHardError)
{
    std::ostringstream out;
    JournalWriter w(out);
    w.write(makeEvent(0, 0.0, "epoch"));
    w.write(makeEvent(1, 0.1, "epoch"));
    std::string text = out.str();
    const std::string good_tail =
        text.substr(text.find('\n') + 1);
    const std::string corrupted =
        "{\"v\":1,\"seq\":0,garbage\n" + good_tail;

    std::istringstream in(corrupted);
    const auto read = readJournal(in);
    ASSERT_FALSE(read.isOk());
    EXPECT_NE(read.message().find("line 1"), std::string::npos)
        << read.message();
}

TEST(Journal, UnsupportedSchemaVersionRejected)
{
    std::istringstream in(
        "{\"v\":99,\"seq\":0,\"epoch\":0,\"t\":0,"
        "\"path\":\"x\",\"type\":\"run\"}\n"
        "{\"v\":1,\"seq\":1,\"epoch\":0,\"t\":0,"
        "\"path\":\"x\",\"type\":\"run\"}\n");
    EXPECT_FALSE(readJournal(in).isOk());
}

TEST(Journal, MissingEnvelopeKeyRejected)
{
    std::istringstream in(
        "{\"v\":1,\"seq\":0,\"epoch\":0,\"t\":0,\"type\":\"run\"}\n"
        "{\"v\":1,\"seq\":1,\"epoch\":0,\"t\":0,"
        "\"path\":\"x\",\"type\":\"run\"}\n");
    EXPECT_FALSE(readJournal(in).isOk());
}

TEST(Journal, EventTypeListIsStable)
{
    const auto &types = journalEventTypes();
    ASSERT_EQ(types.size(), 10u);
    EXPECT_EQ(types.front(), "run");
    for (const char *t : {"epoch", "prediction", "policy", "reconfig",
                          "guard", "watchdog", "fault", "store",
                          "session"}) {
        EXPECT_NE(std::find(types.begin(), types.end(), t),
                  types.end())
            << t;
    }
}

TEST(Journal, ReaderAcceptsBothSchemaVersions)
{
    // v1 journals written before the session event stay readable; the
    // carried version is surfaced per event.
    std::istringstream in(
        "{\"v\":1,\"seq\":0,\"epoch\":0,\"t\":0,"
        "\"path\":\"x\",\"type\":\"run\"}\n"
        "{\"v\":2,\"seq\":1,\"epoch\":0,\"t\":0,"
        "\"path\":\"serve/session\",\"type\":\"session\","
        "\"op\":\"open\",\"session\":0}\n");
    const auto read = readJournal(in);
    ASSERT_TRUE(read.isOk()) << read.message();
    ASSERT_EQ(read.value().events.size(), 2u);
    EXPECT_EQ(read.value().events[0].schemaVersion, 1);
    EXPECT_EQ(read.value().events[1].schemaVersion, 2);
    EXPECT_EQ(read.value().events[1].strField("op"), "open");
    EXPECT_EQ(read.value().events[1].intField("session"), 0);
}
