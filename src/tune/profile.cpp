#include "src/tune/profile.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace calu::tune {
namespace {

// --------------------------------------------------------- tiny JSON ---
// The profile is the only JSON this library reads, so a ~100-line
// recursive-descent parser beats a dependency.  It accepts exactly the
// RFC subset the serializer emits (objects, arrays, strings without
// escapes beyond \" \\ \n \t, numbers, bools, null) and flags everything
// else as corrupt — which is the behavior the recovery path wants.

struct Json {
  enum class Type { Null, Bool, Num, Str, Arr, Obj };
  Type type = Type::Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

struct Parser {
  const char* p;
  const char* end;
  bool ok = true;

  void skip_ws() {
    while (p != end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p == end || *p != c) return ok = false;
    ++p;
    return true;
  }
  bool literal(const char* s) {
    for (; *s; ++s, ++p)
      if (p == end || *p != *s) return ok = false;
    return true;
  }

  Json value() {
    Json j;
    skip_ws();
    if (p == end) {
      ok = false;
      return j;
    }
    switch (*p) {
      case '{': {
        ++p;
        j.type = Json::Type::Obj;
        skip_ws();
        if (p != end && *p == '}') {
          ++p;
          return j;
        }
        do {
          skip_ws();
          Json key = value();
          if (!ok || key.type != Json::Type::Str || !consume(':')) {
            ok = false;
            return j;
          }
          j.obj.emplace_back(std::move(key.str), value());
          if (!ok) return j;
          skip_ws();
        } while (p != end && *p == ',' && ++p);
        consume('}');
        return j;
      }
      case '[': {
        ++p;
        j.type = Json::Type::Arr;
        skip_ws();
        if (p != end && *p == ']') {
          ++p;
          return j;
        }
        do {
          j.arr.push_back(value());
          if (!ok) return j;
          skip_ws();
        } while (p != end && *p == ',' && ++p);
        consume(']');
        return j;
      }
      case '"': {
        ++p;
        j.type = Json::Type::Str;
        while (p != end && *p != '"') {
          if (*p == '\\') {
            ++p;
            if (p == end) break;
            switch (*p) {
              case 'n': j.str += '\n'; break;
              case 't': j.str += '\t'; break;
              default: j.str += *p; break;  // \" \\ \/ pass through
            }
            ++p;
          } else {
            j.str += *p++;
          }
        }
        if (p == end) {
          ok = false;
          return j;
        }
        ++p;  // closing quote
        return j;
      }
      case 't':
        j.type = Json::Type::Bool;
        j.boolean = true;
        literal("true");
        return j;
      case 'f':
        j.type = Json::Type::Bool;
        literal("false");
        return j;
      case 'n':
        literal("null");
        return j;
      default: {
        char* num_end = nullptr;
        j.num = std::strtod(p, &num_end);
        if (num_end == p || num_end > end) {
          ok = false;
          return j;
        }
        j.type = Json::Type::Num;
        p = num_end;
        return j;
      }
    }
  }
};

bool parse_json(const std::string& text, Json& out) {
  Parser parser{text.data(), text.data() + text.size()};
  out = parser.value();
  parser.skip_ws();
  return parser.ok && parser.p == parser.end;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

std::string num_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool get_num(const Json& obj, const char* key, double& out) {
  const Json* v = obj.find(key);
  if (v == nullptr || v->type != Json::Type::Num) return false;
  out = v->num;
  return true;
}

bool get_str(const Json& obj, const char* key, std::string& out) {
  const Json* v = obj.find(key);
  if (v == nullptr || v->type != Json::Type::Str) return false;
  out = v->str;
  return true;
}

}  // namespace

std::string serialize_profile(const Profile& p) {
  std::string out = "{\n \"version\": " + std::to_string(p.version) +
                    ",\n \"host\": ";
  append_escaped(out, p.host);
  out += ",\n \"entries\": [";
  bool first = true;
  for (const auto& [key, d] : p.entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  { \"key\": ";
    append_escaped(out, key);
    out += ", \"dratio\": " + num_str(d.dratio);
    out += ", \"b\": " + std::to_string(d.b);
    out += ", \"engine\": ";
    append_escaped(out, d.engine);
    out += ", \"lookahead_depth\": " + std::to_string(d.lookahead_depth);
    out += ", \"predicted\": " + num_str(d.predicted);
    out += ", \"measured\": " + num_str(d.measured);
    out += " }";
  }
  out += first ? "]\n}\n" : "\n ]\n}\n";
  return out;
}

LoadStatus parse_profile(const std::string& text, Profile& out) {
  // Whitespace-only text (or the 0 bytes /dev/null yields) is "nothing
  // stored", not corruption — no warning should fire for it.
  if (text.find_first_not_of(" \t\r\n") == std::string::npos)
    return LoadStatus::Missing;

  Json root;
  if (!parse_json(text, root) || root.type != Json::Type::Obj)
    return LoadStatus::Corrupt;

  double version = 0.0;
  if (!get_num(root, "version", version)) return LoadStatus::Corrupt;
  // Any other schema — older or from the future — may carry fields whose
  // absence or reinterpretation here would be silently wrong; regenerate.
  if (static_cast<int>(version) != kProfileVersion) return LoadStatus::Corrupt;

  const Json* entries = root.find("entries");
  if (entries == nullptr || entries->type != Json::Type::Arr)
    return LoadStatus::Corrupt;

  Profile p;
  get_str(root, "host", p.host);
  for (const Json& e : entries->arr) {
    if (e.type != Json::Type::Obj) return LoadStatus::Corrupt;
    std::string key;
    Decision d;
    double dratio = d.dratio, b = d.b, look = d.lookahead_depth;
    double predicted = d.predicted, measured = d.measured;
    if (!get_str(e, "key", key) || !get_num(e, "dratio", dratio) ||
        !get_num(e, "b", b) || !get_str(e, "engine", d.engine) ||
        !get_num(e, "lookahead_depth", look))
      return LoadStatus::Corrupt;
    get_num(e, "predicted", predicted);
    get_num(e, "measured", measured);
    d.dratio = dratio;
    d.b = static_cast<int>(b);
    d.lookahead_depth = static_cast<int>(look);
    d.predicted = predicted;
    d.measured = measured;
    p.entries[key] = std::move(d);
  }
  out = std::move(p);
  return LoadStatus::Ok;
}

bool FileProfileStore::load(std::string& text_out) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return false;
  text_out = ss.str();
  return true;
}

bool FileProfileStore::save(const std::string& text) {
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  out.flush();
  return out.good();
}

std::string default_profile_path() {
  if (const char* env = std::getenv("CALU_TUNE_PROFILE");
      env != nullptr && env[0] != '\0')
    return env;
  return "calu_tune_profile.json";
}

}  // namespace calu::tune
