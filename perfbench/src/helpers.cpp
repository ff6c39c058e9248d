#include "helpers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

// ---- percentiles ------------------------------------------------------------

std::size_t nearest_rank_index(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps p/100·n from rounding up past an exact rank
  // (99.9% of 10000 is 9990, not 9990.000000000002).
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

double nearest_rank(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank_index(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double top_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (n >= 10 && n - nearest_rank_index(n, p) >= 10) best = p;
  }
  return best;
}

Distribution summarize(std::vector<double>& v) {
  Distribution d;
  d.n = v.size();
  d.p50 = nearest_rank(v, 50.0);
  d.p99 = nearest_rank(v, 99.0);
  d.top_p = top_supported_percentile(d.n);
  d.top_value = d.top_p > 0.0 ? nearest_rank(v, d.top_p) : 0.0;
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- spans ------------------------------------------------------------------

int SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost first; tolerate a mismatched close by popping
  // through it so later spans still parent correctly.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanLog::add(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id_;
  spans_.push_back(std::move(s));
}

std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(i)) continue;
    const std::int64_t a = std::max(c.start_ns, s.start_ns);
    const std::int64_t b = std::min(c.end_ns, s.end_ns);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t run_a = 0;
  std::int64_t run_b = -1;
  for (const auto& [a, b] : kids) {
    if (run_b < run_a || a > run_b) {
      if (run_b > run_a) covered += run_b - run_a;
      run_a = a;
      run_b = b;
    } else {
      run_b = std::max(run_b, b);
    }
  }
  if (run_b > run_a) covered += run_b - run_a;
  return (s.end_ns - s.start_ns) - covered;
}

std::map<std::string, std::int64_t> SpanLog::self_by_layer() const {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += self_ns(i);
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::ostringstream out;
  out << "[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",";
    out << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << num(static_cast<double>(s.start_ns - t0) / 1e3)
        << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run_id
        << ",\"self_us\":" << num(static_cast<double>(self_ns(i)) / 1e3)
        << "}}";
  }
  out << "\n]\n";
  return out.str();
}

std::string layer_of(std::string_view span_name) {
  const auto dot = span_name.find('.');
  return std::string(span_name.substr(0, dot));
}

// ---- completion conservation -------------------------------------------------

Conservation::Take Conservation::take(std::uint64_t tag) {
  if (!outstanding_.empty() && outstanding_.front() == tag) {
    outstanding_.pop_front();
    return Take::kInOrder;
  }
  const auto it = std::find(outstanding_.begin(), outstanding_.end(), tag);
  if (it == outstanding_.end()) return Take::kUnknown;
  outstanding_.erase(it);
  return Take::kOutOfOrder;
}

void Conservation::answered(std::uint64_t tag) {
  switch (take(tag)) {
    case Take::kInOrder: ++in_order_; break;
    case Take::kOutOfOrder: ++out_of_order_; break;
    case Take::kUnknown: ++duplicates_; break;  // answered twice, or never sent
  }
}

void Conservation::pushed_back(std::uint64_t tag) {
  // A pushed-back request is answered but not served: it counts once, as
  // a pushback.
  if (take(tag) == Take::kUnknown) {
    ++duplicates_;
  } else {
    ++pushbacks_;
  }
}

// ---- process and host readers -----------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

CpuTicks parse_proc_stat(std::string_view text) {
  CpuTicks t;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream ss(line.substr(4));
    std::uint64_t v = 0;
    for (int field = 0; field < 8 && (ss >> v); ++field) {
      // user nice system idle iowait irq softirq steal; guest time is
      // already inside user, so the first eight fields are the total.
      t.total += v;
      if (field == 7) t.steal = v;
    }
    break;
  }
  return t;
}

CpuTicks read_cpu_ticks() { return parse_proc_stat(read_file("/proc/stat")); }

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double parse_vm_hwm_mb(std::string_view status_text) {
  const auto at = status_text.find("VmHWM:");
  if (at == std::string_view::npos) return 0.0;
  std::istringstream ss(std::string(status_text.substr(at + 6, 64)));
  double kib = 0.0;
  ss >> kib;
  return kib / 1024.0;
}

double peak_rss_mb() {
  return parse_vm_hwm_mb(read_file("/proc/self/status"));
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Prometheus text ---------------------------------------------------------

Scrape::Scrape(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    std::size_t value_at = 0;
    const auto brace = line.find('{');
    const auto space = line.find(' ');
    if (brace != std::string_view::npos && brace < space) {
      const auto close = line.rfind('}');
      if (close == std::string_view::npos) continue;
      s.family = std::string(line.substr(0, brace));
      s.labels = std::string(line.substr(brace + 1, close - brace - 1));
      value_at = close + 1;
    } else {
      if (space == std::string_view::npos) continue;
      s.family = std::string(line.substr(0, space));
      value_at = space;
    }
    s.value = std::strtod(std::string(line.substr(value_at)).c_str(), nullptr);
    samples_.push_back(std::move(s));
  }
}

double Scrape::sum(std::string_view family, std::string_view label) const {
  double total = 0.0;
  for (const auto& s : samples_) {
    if (s.family != family) continue;
    if (!label.empty() && s.labels.find(label) == std::string::npos) continue;
    total += s.value;
  }
  return total;
}

std::string http_get_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string req =
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      std::string resp;
      char buf[65536];
      for (;;) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 10000) <= 0) break;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        resp.append(buf, static_cast<std::size_t>(n));
      }
      const auto hdr_end = resp.find("\r\n\r\n");
      if (resp.rfind("HTTP/1.1 200", 0) == 0 && hdr_end != std::string::npos) {
        body = resp.substr(hdr_end + 4);
      }
    }
  }
  ::close(fd);
  return body;
}

// ---- digests ----------------------------------------------------------------

void Digest::add_d(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  add(bits);
}

// ---- output -----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void MetricSet::put(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : items_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, vu] = items_[i];
    if (i) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
