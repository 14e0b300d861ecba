#include "ops/coll_algo.hpp"

#include <bit>
#include <cctype>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace caf2 {

const char* to_string(CollAlgorithm algorithm) {
  switch (algorithm) {
    case CollAlgorithm::kAuto:
      return "auto";
    case CollAlgorithm::kBinomialTree:
      return "binomial";
    case CollAlgorithm::kKnomialTree:
      return "knomial";
    case CollAlgorithm::kRing:
      return "ring";
    case CollAlgorithm::kRecursiveDoubling:
      return "recursive_doubling";
    case CollAlgorithm::kDissemination:
      return "dissemination";
    case CollAlgorithm::kDirect:
      return "direct";
  }
  return "?";
}

namespace ops {

const char* to_string(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier:
      return "barrier";
    case CollKind::kBroadcast:
      return "broadcast";
    case CollKind::kReduce:
      return "reduce";
    case CollKind::kAllreduce:
      return "allreduce";
    case CollKind::kGather:
      return "gather";
    case CollKind::kScatter:
      return "scatter";
    case CollKind::kAlltoall:
      return "alltoall";
    case CollKind::kScan:
      return "scan";
    case CollKind::kSort:
      return "sort";
    case CollKind::kAllgather:
      return "allgather";
    case CollKind::kReduceScatter:
      return "reduce_scatter";
    case CollKind::kGatherv:
      return "gatherv";
    case CollKind::kScatterv:
      return "scatterv";
    case CollKind::kAlltoallv:
      return "alltoallv";
  }
  return "?";
}

std::vector<CollAlgorithm> supported_algorithms(CollKind kind) {
  // Default schedule first — default_algorithm() relies on it.
  switch (kind) {
    case CollKind::kBarrier:
      return {CollAlgorithm::kDissemination, CollAlgorithm::kBinomialTree};
    case CollKind::kBroadcast:
      return {CollAlgorithm::kBinomialTree, CollAlgorithm::kKnomialTree,
              CollAlgorithm::kRing};
    case CollKind::kReduce:
      return {CollAlgorithm::kBinomialTree, CollAlgorithm::kKnomialTree};
    case CollKind::kAllreduce:
      return {CollAlgorithm::kBinomialTree, CollAlgorithm::kRing,
              CollAlgorithm::kRecursiveDoubling};
    case CollKind::kGather:
    case CollKind::kScatter:
      return {CollAlgorithm::kBinomialTree, CollAlgorithm::kDirect};
    case CollKind::kAlltoall:
      return {CollAlgorithm::kDirect};
    case CollKind::kScan:
      // Hillis-Steele is the recursive-doubling schedule.
      return {CollAlgorithm::kRecursiveDoubling};
    case CollKind::kSort:
      // Sample sort's splitter exchange is direct pairwise.
      return {CollAlgorithm::kDirect};
    case CollKind::kAllgather:
      return {CollAlgorithm::kRing, CollAlgorithm::kRecursiveDoubling,
              CollAlgorithm::kDirect};
    case CollKind::kReduceScatter:
      return {CollAlgorithm::kRing, CollAlgorithm::kDirect};
    case CollKind::kGatherv:
    case CollKind::kScatterv:
    case CollKind::kAlltoallv:
      return {CollAlgorithm::kDirect};
  }
  throw UsageError("unknown collective kind");
}

CollAlgorithm default_algorithm(CollKind kind) {
  return supported_algorithms(kind).front();
}

bool algorithm_supported(CollKind kind, CollAlgorithm algorithm) {
  for (const CollAlgorithm candidate : supported_algorithms(kind)) {
    if (candidate == algorithm) {
      return true;
    }
  }
  return false;
}

bool parse_algorithm(std::string_view name, CollAlgorithm& out) {
  for (const CollAlgorithm a :
       {CollAlgorithm::kAuto, CollAlgorithm::kBinomialTree,
        CollAlgorithm::kKnomialTree, CollAlgorithm::kRing,
        CollAlgorithm::kRecursiveDoubling, CollAlgorithm::kDissemination,
        CollAlgorithm::kDirect}) {
    if (name == to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

bool parse_coll_kind(std::string_view name, CollKind& out) {
  for (const CollKind k :
       {CollKind::kBarrier, CollKind::kBroadcast, CollKind::kReduce,
        CollKind::kAllreduce, CollKind::kGather, CollKind::kScatter,
        CollKind::kAlltoall, CollKind::kScan, CollKind::kSort,
        CollKind::kAllgather, CollKind::kReduceScatter, CollKind::kGatherv,
        CollKind::kScatterv, CollKind::kAlltoallv}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// --- selection table ---------------------------------------------------------

int CollSelectionTable::log2_bucket(std::size_t value) {
  return value <= 1 ? 0 : std::bit_width(value) - 1;
}

void CollSelectionTable::set(CollKind kind, int images, std::size_t bytes,
                             CollAlgorithm algorithm) {
  CAF2_REQUIRE(algorithm != CollAlgorithm::kAuto,
               "selection table entries must name a concrete algorithm");
  CAF2_REQUIRE(algorithm_supported(kind, algorithm),
               std::string("selection table: ") + to_string(algorithm) +
                   " is not implemented for " + to_string(kind));
  entries_[{static_cast<int>(kind),
            log2_bucket(static_cast<std::size_t>(images < 1 ? 1 : images)),
            log2_bucket(bytes)}] = algorithm;
}

CollAlgorithm CollSelectionTable::lookup(CollKind kind, int images,
                                         std::size_t bytes) const {
  const int li =
      log2_bucket(static_cast<std::size_t>(images < 1 ? 1 : images));
  const int lb = log2_bucket(bytes);
  // Nearest recorded bucket for this kind: images distance dominates, then
  // payload distance; ties break toward the smaller bucket (map order).
  const auto* best = static_cast<const decltype(entries_)::value_type*>(nullptr);
  int best_di = 0;
  int best_db = 0;
  for (const auto& entry : entries_) {
    const auto& [ekind, eli, elb] = entry.first;
    if (ekind != static_cast<int>(kind)) {
      continue;
    }
    const int di = eli > li ? eli - li : li - eli;
    const int db = elb > lb ? elb - lb : lb - elb;
    if (best == nullptr || di < best_di ||
        (di == best_di && db < best_db)) {
      best = &entry;
      best_di = di;
      best_db = db;
    }
  }
  return best == nullptr ? CollAlgorithm::kAuto : best->second;
}

std::string CollSelectionTable::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"caf2.coll_selection\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"entries\": [";
  bool first = true;
  for (const auto& [key, algorithm] : entries_) {
    const auto& [kind, li, lb] = key;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"collective\": \""
        << to_string(static_cast<CollKind>(kind)) << "\", \"log2_images\": "
        << li << ", \"log2_bytes\": " << lb << ", \"algorithm\": \""
        << to_string(algorithm) << "\"}";
  }
  out << (first ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

namespace {

/// Minimal scanner for the to_json() document shape (objects of scalar
/// fields inside one "entries" array). Not a general JSON parser; rejects
/// anything it does not understand instead of guessing.
class TableScanner {
 public:
  explicit TableScanner(const std::string& text) : text_(text) {}

  void fail(const std::string& why) const {
    throw UsageError("coll selection table: " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        fail("escape sequences are not supported");
      }
      out.push_back(text_[pos_++]);
    }
    expect('"');
    return out;
  }

  long parse_int() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected an integer");
    }
    return std::stol(text_.substr(start, pos_ - start));
  }

  /// Either a string or a number, discarded (unknown fields are skipped).
  void skip_scalar() {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      (void)parse_string();
    } else {
      (void)parse_int();
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

CollSelectionTable CollSelectionTable::from_json(const std::string& text) {
  TableScanner in(text);
  CollSelectionTable table;
  in.expect('{');
  bool saw_entries = false;
  while (true) {
    const std::string field = in.parse_string();
    in.expect(':');
    if (field == "entries") {
      saw_entries = true;
      in.expect('[');
      if (!in.eat(']')) {
        do {
          in.expect('{');
          std::string kind_name;
          std::string algo_name;
          long li = -1;
          long lb = -1;
          do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "collective") {
              kind_name = in.parse_string();
            } else if (key == "algorithm") {
              algo_name = in.parse_string();
            } else if (key == "log2_images") {
              li = in.parse_int();
            } else if (key == "log2_bytes") {
              lb = in.parse_int();
            } else {
              in.skip_scalar();
            }
          } while (in.eat(','));
          in.expect('}');
          CollKind kind{};
          CollAlgorithm algorithm{};
          if (!parse_coll_kind(kind_name, kind)) {
            in.fail("unknown collective \"" + kind_name + "\"");
          }
          if (!parse_algorithm(algo_name, algorithm)) {
            in.fail("unknown algorithm \"" + algo_name + "\"");
          }
          if (li < 0 || lb < 0) {
            in.fail("entry is missing log2_images / log2_bytes");
          }
          table.set(kind, 1 << static_cast<int>(li),
                    std::size_t{1} << static_cast<int>(lb), algorithm);
        } while (in.eat(','));
        in.expect(']');
      }
    } else {
      in.skip_scalar();
    }
    if (!in.eat(',')) {
      break;
    }
  }
  in.expect('}');
  if (!in.at_end()) {
    in.fail("trailing content after the closing brace");
  }
  if (!saw_entries) {
    in.fail("document has no \"entries\" array");
  }
  return table;
}

/// --- process-global table ----------------------------------------------------

namespace {
std::mutex g_table_mutex;
CollSelectionTable g_table;
}  // namespace

void set_selection_table(CollSelectionTable table) {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  g_table = std::move(table);
}

void clear_selection_table() {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  g_table = CollSelectionTable{};
}

void load_selection_table_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CAF2_REQUIRE(in.good(),
               "coll selection table: cannot read \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  set_selection_table(CollSelectionTable::from_json(text.str()));
}

CollSelectionTable selection_table() {
  const std::lock_guard<std::mutex> lock(g_table_mutex);
  return g_table;
}

CollAlgorithm resolve_algorithm(CollKind kind, CollAlgorithm requested,
                                int team_size, std::size_t bytes) {
  CollAlgorithm algorithm = requested;
  if (algorithm == CollAlgorithm::kAuto) {
    {
      const std::lock_guard<std::mutex> lock(g_table_mutex);
      algorithm = g_table.lookup(kind, team_size, bytes);
    }
    if (algorithm == CollAlgorithm::kAuto ||
        !algorithm_supported(kind, algorithm)) {
      algorithm = default_algorithm(kind);
    }
  } else {
    CAF2_REQUIRE(algorithm_supported(kind, algorithm),
                 std::string("collective algorithm \"") +
                     to_string(algorithm) + "\" is not implemented for " +
                     to_string(kind));
  }
  // Structural clamps: keep the choice runnable on this team.
  if (kind == CollKind::kAllgather &&
      algorithm == CollAlgorithm::kRecursiveDoubling &&
      !std::has_single_bit(static_cast<unsigned>(team_size))) {
    algorithm = CollAlgorithm::kRing;
  }
  return algorithm;
}

const char* coll_span_label(CollKind kind, CollAlgorithm algorithm) {
  return obs::intern_label(std::string(to_string(kind)) + "/" +
                           to_string(algorithm));
}

}  // namespace ops
}  // namespace caf2
