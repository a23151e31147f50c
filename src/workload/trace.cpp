#include "workload/trace.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace vor::workload {

namespace {

constexpr const char* kHeader = "user,video,start_sec,neighborhood";

/// Splits one CSV record, honouring double-quote escaping.
util::Result<std::vector<std::string>> SplitCsvLine(const std::string& line,
                                                    std::size_t line_no) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (ch != '\r') {
      current += ch;
    }
  }
  if (quoted) {
    return util::InvalidArgument("line " + std::to_string(line_no) +
                                 ": unterminated quote");
  }
  fields.push_back(std::move(current));
  return fields;
}

util::Result<double> ParseNumber(const std::string& field,
                                 std::size_t line_no) {
  double value = 0.0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    return util::InvalidArgument("line " + std::to_string(line_no) +
                                 ": malformed number '" + field + "'");
  }
  return value;
}

}  // namespace

std::string RequestsToCsv(const std::vector<Request>& requests) {
  std::ostringstream os;
  os << kHeader << '\n';
  os.precision(17);  // exact double round trip
  for (const Request& r : requests) {
    os << r.user << ',' << r.video << ',' << r.start_time.value() << ','
       << r.neighborhood << '\n';
  }
  return os.str();
}

util::Result<std::vector<Request>> RequestsFromCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::vector<Request> requests;
  bool saw_header = false;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    auto fields = SplitCsvLine(line, line_no);
    if (!fields.ok()) return fields.error();

    if (!saw_header) {
      std::string joined;
      for (std::size_t i = 0; i < fields->size(); ++i) {
        if (i) joined += ',';
        joined += (*fields)[i];
      }
      if (joined != kHeader) {
        return util::InvalidArgument(
            "line 1: expected header '" + std::string(kHeader) + "', got '" +
            joined + "'");
      }
      saw_header = true;
      continue;
    }

    if (fields->size() != 4) {
      return util::InvalidArgument("line " + std::to_string(line_no) +
                                   ": expected 4 fields, got " +
                                   std::to_string(fields->size()));
    }
    Request r;
    auto user = ParseNumber((*fields)[0], line_no);
    if (!user.ok()) return user.error();
    auto video = ParseNumber((*fields)[1], line_no);
    if (!video.ok()) return video.error();
    auto start = ParseNumber((*fields)[2], line_no);
    if (!start.ok()) return start.error();
    auto neighborhood = ParseNumber((*fields)[3], line_no);
    if (!neighborhood.ok()) return neighborhood.error();
    if (*user < 0 || *video < 0 || *neighborhood < 0) {
      return util::InvalidArgument("line " + std::to_string(line_no) +
                                   ": negative id");
    }
    r.user = static_cast<UserId>(*user);
    r.video = static_cast<media::VideoId>(*video);
    r.start_time = util::Seconds{*start};
    r.neighborhood = static_cast<net::NodeId>(*neighborhood);
    requests.push_back(r);
  }
  if (!saw_header) {
    return util::InvalidArgument("empty trace: header row missing");
  }
  return requests;
}

bool ReplayOrderLess(const Request& a, const Request& b) {
  if (a.start_time.value() != b.start_time.value()) {
    return a.start_time.value() < b.start_time.value();
  }
  if (a.user != b.user) return a.user < b.user;
  if (a.video != b.video) return a.video < b.video;
  return a.neighborhood < b.neighborhood;
}

void SortForReplay(std::vector<Request>& requests) {
  std::stable_sort(requests.begin(), requests.end(), ReplayOrderLess);
}

util::Status ValidateRequest(const Request& r, const net::Topology& topology,
                             const media::Catalog& catalog,
                             std::optional<std::size_t> index) {
  const std::string which =
      index.has_value() ? "request " + std::to_string(*index) : "request";
  if (!catalog.Contains(r.video)) {
    return util::NotFound(which + " references unknown video " +
                          std::to_string(r.video));
  }
  if (!topology.IsStorage(r.neighborhood)) {
    return util::InvalidArgument(which + " has non-storage neighborhood " +
                                 std::to_string(r.neighborhood));
  }
  if (!IsValidTime(r.start_time)) {
    return util::InvalidArgument(which +
                                 " has a negative or non-finite start time");
  }
  return util::Status::Ok();
}

util::Status ValidateTrace(const std::vector<Request>& requests,
                           const net::Topology& topology,
                           const media::Catalog& catalog) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (const util::Status s =
            ValidateRequest(requests[i], topology, catalog, i);
        !s.ok()) {
      return s;
    }
  }
  return util::Status::Ok();
}

}  // namespace vor::workload
