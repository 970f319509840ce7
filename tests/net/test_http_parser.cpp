// net layer: incremental HTTP/1.1 parser, response serializer, ByteBuffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../json_mutants.hpp"
#include "net/buffer.hpp"
#include "net/http.hpp"

using maps::net::ByteBuffer;
using maps::net::HttpLimits;
using maps::net::HttpParser;
using maps::net::HttpRequest;
using Status = maps::net::HttpParser::Status;

namespace {

Status feed_text(HttpParser& parser, ByteBuffer& buf, const std::string& text) {
  buf.append(text);
  return parser.feed(buf);
}

/// What a parser made of one byte stream: every ready request (flattened
/// to text), the largest body among them and the error status it stopped
/// on (0 = none).
struct ParseOutcome {
  std::vector<std::string> requests;
  std::size_t max_body = 0;
  int error_status = 0;
  bool operator==(const ParseOutcome&) const = default;
};

/// Feed `wire` in `step`-byte pieces (0 = all at once), taking every ready
/// request, until the bytes run out or the parser errors.
ParseOutcome parse_in_pieces(const std::string& wire, std::size_t step,
                             HttpLimits limits) {
  HttpParser parser(limits);
  ByteBuffer buf;
  ParseOutcome out;
  const std::size_t piece = step == 0 ? wire.size() : step;
  for (std::size_t at = 0; at < wire.size(); at += piece) {
    buf.append(std::string_view(wire).substr(at, piece));
    for (;;) {
      const Status st = parser.feed(buf);
      if (st == Status::NeedMore) break;
      if (st == Status::Error) {
        out.error_status = parser.error_status();
        return out;
      }
      const HttpRequest req = parser.take_request();
      std::string flat = req.method + " " + req.target + " 1." +
                         std::to_string(req.version_minor) +
                         (req.keep_alive ? " keep-alive\n" : " close\n");
      for (const auto& [name, value] : req.headers) flat += name + ": " + value + "\n";
      out.requests.push_back(flat + "\n" + req.body);
      out.max_body = std::max(out.max_body, req.body.size());
    }
  }
  return out;
}

}  // namespace

TEST(ByteBuffer, AppendConsumePreservesRemainder) {
  ByteBuffer buf;
  buf.append("hello world");
  EXPECT_EQ(buf.size(), 11u);
  buf.consume(6);
  EXPECT_EQ(std::string(buf.readable()), "world");
  buf.consume(5);
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"),
            Status::Ready);
  HttpRequest req = parser.take_request();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.version_minor, 1);
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.find_header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.find_header("HOST"), "localhost");
  EXPECT_TRUE(req.body.empty());
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParser, IncrementalOneByteAtATime) {
  const std::string wire =
      "POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  HttpParser parser;
  ByteBuffer buf;
  Status st = Status::NeedMore;
  for (char c : wire) {
    st = feed_text(parser, buf, std::string(1, c));
  }
  ASSERT_EQ(st, Status::Ready);
  HttpRequest req = parser.take_request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "abcd");
}

TEST(HttpParser, PipelinedRequestsLeaveRemainderIntact) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
                      "GET /stats HTTP/1.1\r\n\r\n"),
            Status::Ready);
  HttpRequest first = parser.take_request();
  EXPECT_EQ(first.body, "hi");
  // The second request's bytes are still buffered, untouched.
  ASSERT_EQ(parser.feed(buf), Status::Ready);
  HttpRequest second = parser.take_request();
  EXPECT_EQ(second.method, "GET");
  EXPECT_EQ(second.target, "/stats");
  EXPECT_TRUE(buf.empty());
}

TEST(HttpParser, ChunkedBodyWithExtensionsAndTrailers) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "POST /predict HTTP/1.1\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"
                      "4;ext=1\r\nWiki\r\n"
                      "5\r\npedia\r\n"
                      "0\r\nTrailer: ignored\r\n\r\n"),
            Status::Ready);
  HttpRequest req = parser.take_request();
  EXPECT_EQ(req.body, "Wikipedia");
}

TEST(HttpParser, KeepAliveDefaultsPerVersion) {
  {
    HttpParser parser;
    ByteBuffer buf;
    ASSERT_EQ(feed_text(parser, buf, "GET / HTTP/1.0\r\n\r\n"), Status::Ready);
    EXPECT_FALSE(parser.take_request().keep_alive);
  }
  {
    HttpParser parser;
    ByteBuffer buf;
    ASSERT_EQ(feed_text(parser, buf,
                        "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
              Status::Ready);
    EXPECT_TRUE(parser.take_request().keep_alive);
  }
  {
    HttpParser parser;
    ByteBuffer buf;
    ASSERT_EQ(feed_text(parser, buf,
                        "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              Status::Ready);
    EXPECT_FALSE(parser.take_request().keep_alive);
  }
}

TEST(HttpParser, MalformedRequestLineIs400) {
  for (const char* bad : {"GARBAGE\r\n\r\n",                 // no spaces
                          "GET /x HTTP/2.0\r\n\r\n",         // bad version
                          "GET  /x HTTP/1.1\r\n\r\n",        // double space
                          "get /x HTTP/1.1\r\n\r\n"}) {      // lowercase method
    HttpParser parser;
    ByteBuffer buf;
    ASSERT_EQ(feed_text(parser, buf, bad), Status::Error) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(HttpParser, HeaderWithoutColonIs400) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf, "GET / HTTP/1.1\r\nbogus line\r\n\r\n"),
            Status::Error);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, ConflictingFramingHeadersAre400) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "POST / HTTP/1.1\r\nContent-Length: 3\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"),
            Status::Error);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, OversizedBodyIs413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
            Status::Error);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, OversizedChunkedBodyIs413) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  HttpParser parser(limits);
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                      "6\r\nabcdef\r\n6\r\nabcdef\r\n"),
            Status::Error);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, OversizedHeadersAre431) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpParser parser(limits);
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf,
                      "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'a') +
                          "\r\n\r\n"),
            Status::Error);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, TruncatedHeadersStayNeedMore) {
  HttpParser parser;
  ByteBuffer buf;
  EXPECT_EQ(feed_text(parser, buf, "GET / HTTP/1.1\r\nHost: lo"),
            Status::NeedMore);
  EXPECT_TRUE(parser.mid_request());
  EXPECT_EQ(feed_text(parser, buf, "calhost\r\n\r\n"), Status::Ready);
}

TEST(HttpParser, TakeRequestResetsForKeepAlive) {
  HttpParser parser;
  ByteBuffer buf;
  ASSERT_EQ(feed_text(parser, buf, "GET /a HTTP/1.1\r\n\r\n"), Status::Ready);
  (void)parser.take_request();
  EXPECT_FALSE(parser.mid_request());
  ASSERT_EQ(feed_text(parser, buf, "GET /b HTTP/1.1\r\n\r\n"), Status::Ready);
  EXPECT_EQ(parser.take_request().target, "/b");
}

TEST(HttpResponse, SerializesHeadAndBody) {
  const std::string wire =
      maps::net::http_response(200, "application/json", "{\"ok\":true}", true);
  EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 11), "{\"ok\":true}");
}

TEST(HttpResponse, ExtraHeadersAndClose) {
  const std::string wire = maps::net::http_response(
      429, "application/json", "{}", false, {{"Retry-After", "2"}});
  EXPECT_EQ(wire.rfind("HTTP/1.1 429 Too Many Requests\r\n", 0), 0u);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 2\r\n"), std::string::npos);
}

TEST(HttpParserFuzz, MutantsParseAlikeInAnyPiecesWithinLimits) {
  // Seeds: a GET; a Content-Length POST pipelined with an HTTP/1.0 GET; a
  // chunked POST with chunk extensions and a trailer. The insert alphabet
  // holds the bytes HTTP framing turns on (CR, LF, ':', ';', hex digits).
  const std::vector<std::string> seeds = {
      "GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\nX-Request-Id: r-1\r\n\r\n",
      "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n"
      "{\"id\": 1}GET /v1/stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nTrailer: x\r\n\r\n",
  };
  HttpLimits limits;
  limits.max_header_bytes = 72;  // just above the longest seed head
  limits.max_body_bytes = 16;
  std::size_t parsed = 0;
  std::set<int> statuses;
  std::uint64_t seed = 301;
  for (const std::string& doc : seeds) {
    ASSERT_EQ(parse_in_pieces(doc, 0, limits).error_status, 0) << doc;
    for (const std::string& m :
         maps::test::json_mutants(doc, 5000, seed++, " \r\n\t:;/.0123456789abcdefABCDEF")) {
      const ParseOutcome whole = parse_in_pieces(m, 0, limits);
      ASSERT_EQ(parse_in_pieces(m, 1, limits), whole) << m;
      const int status = whole.error_status;
      ASSERT_TRUE(status == 0 || status == 400 || status == 413 || status == 431)
          << status << " for " << m;
      ASSERT_LE(whole.max_body, limits.max_body_bytes) << m;
      parsed += whole.requests.size();
      statuses.insert(status);
    }
  }
  // The corpus reaches past the request line and down every error path.
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(statuses, (std::set<int>{0, 400, 413, 431}));
}
