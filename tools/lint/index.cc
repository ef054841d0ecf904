#include "index.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <utility>

namespace csq::lint {

namespace {

[[nodiscard]] bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

// Keywords that can precede `(` without being a call.
[[nodiscard]] bool is_call_excluded_keyword(const std::string& id) {
  static const char* const kNotCalls[] = {
      "if",     "for",     "while",    "switch",   "catch",    "return",
      "sizeof", "alignof", "decltype", "noexcept", "throw",    "new",
      "delete", "and",     "or",       "not",      "co_await", "co_return",
      "co_yield"};
  for (const char* k : kNotCalls)
    if (id == k) return true;
  return false;
}

// Index of the token matching the opener at `open`, or tokens.size().
[[nodiscard]] std::size_t matching(const std::vector<Token>& toks, std::size_t open,
                                   const char* o, const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

// Words whose presence marks a comment as an ordering rationale (R16).
[[nodiscard]] bool is_order_rationale(const std::string& text) {
  static const char* const kWords[] = {"relaxed",   "acquire", "release",
                                       "acq_rel",   "seq_cst", "order",
                                       "race",      "racy",    "monotonic",
                                       "fence",     "synchron", "happens-before",
                                       "tsan"};
  std::string lower;
  lower.reserve(text.size());
  for (char ch : text) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  for (const char* w : kWords)
    if (lower.find(w) != std::string::npos) return true;
  return false;
}

// Line span of a comment (block comments span multiple lines).
[[nodiscard]] int comment_end_line(const Comment& c) {
  return c.line + static_cast<int>(std::count(c.text.begin(), c.text.end(), '\n'));
}

[[nodiscard]] std::string module_of(const std::string& rel) {
  if (starts_with(rel, "tools/")) return "tools";
  if (starts_with(rel, "tests/")) return "tests";
  if (starts_with(rel, "src/")) {
    const std::size_t slash = rel.find('/', 4);
    if (slash == std::string::npos) return "";  // src/csq.h umbrella
    return rel.substr(4, slash - 4);
  }
  return "";
}

}  // namespace

FileIndex build_file_index(const SourceFile& file) {
  FileIndex idx;
  idx.rel = file.rel;
  idx.is_header = file.is_header;
  idx.module = module_of(file.rel);

  // Includes straight off the directive list.
  for (const Directive& d : file.directives) {
    if (!starts_with(d.text, "#include")) continue;
    IncludeRef inc;
    inc.line = d.line;
    std::size_t q = d.text.find('"');
    std::size_t a = d.text.find('<');
    if (q != std::string::npos && (a == std::string::npos || q < a)) {
      const std::size_t e = d.text.find('"', q + 1);
      if (e == std::string::npos) continue;
      inc.target = d.text.substr(q + 1, e - q - 1);
      inc.system = false;
    } else if (a != std::string::npos) {
      const std::size_t e = d.text.find('>', a + 1);
      if (e == std::string::npos) continue;
      inc.target = d.text.substr(a + 1, e - a - 1);
      inc.system = true;
    } else {
      continue;
    }
    idx.includes.push_back(std::move(inc));
  }

  const std::vector<Token>& t = file.tokens;
  const std::size_t n = t.size();

  // Scope stack: what each currently-open `{` introduced.
  enum class ScopeKind { kNamespace, kClass, kFunction, kBlock };
  struct Scope {
    ScopeKind kind;
    std::string name;   // namespace or class name
    int fn = -1;        // index into idx.functions for kFunction
  };
  std::vector<Scope> scopes;
  // Braces whose scope kind was decided by a lookahead below.
  std::map<std::size_t, Scope> pending_brace;

  const auto in_function = [&]() {
    for (const Scope& s : scopes)
      if (s.kind == ScopeKind::kFunction) return s.fn;
    return -1;
  };
  const auto at_decl_scope = [&]() {
    return scopes.empty() || scopes.back().kind == ScopeKind::kNamespace ||
           scopes.back().kind == ScopeKind::kClass;
  };

  std::size_t detect_resume = 0;  // function-signature lookahead guard
  // Token indices of atomics, parallel to the owning function's list.
  std::vector<std::pair<int, std::size_t>> atomic_toks;

  for (std::size_t i = 0; i < n; ++i) {
    const Token& tok = t[i];

    if (tok.kind == TokKind::kPunct && tok.text == "{") {
      const auto it = pending_brace.find(i);
      if (it != pending_brace.end()) {
        scopes.push_back(it->second);
        pending_brace.erase(it);
      } else {
        scopes.push_back({ScopeKind::kBlock, "", -1});
      }
      continue;
    }
    if (tok.kind == TokKind::kPunct && tok.text == "}") {
      if (!scopes.empty()) {
        if (scopes.back().kind == ScopeKind::kFunction && scopes.back().fn >= 0)
          idx.functions[static_cast<std::size_t>(scopes.back().fn)].end_line = tok.line;
        scopes.pop_back();
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    // namespace [a::b] { ...
    if (tok.text == "namespace" && in_function() < 0) {
      std::string name;
      std::size_t j = i + 1;
      while (j < n && (t[j].kind == TokKind::kIdent ||
                       (t[j].kind == TokKind::kPunct && t[j].text == "::"))) {
        if (t[j].kind == TokKind::kIdent) name = t[j].text;  // innermost wins
        ++j;
      }
      if (j < n && t[j].text == "{") {
        pending_brace[j] = {ScopeKind::kNamespace, name, -1};
        if (!name.empty()) idx.namespaces.push_back(name);
      }
      continue;
    }

    // class/struct Name ... { (forward declarations fall through harmlessly).
    if ((tok.text == "class" || tok.text == "struct") &&
        (i == 0 || t[i - 1].text != "enum") && in_function() < 0) {
      std::string name;
      std::size_t j = i + 1;
      while (j < n) {
        if (t[j].kind == TokKind::kIdent && name.empty()) name = t[j].text;
        if (t[j].kind == TokKind::kPunct &&
            (t[j].text == "{" || t[j].text == ";" || t[j].text == "=" || t[j].text == "("))
          break;
        ++j;
      }
      if (j < n && t[j].text == "{" && !name.empty())
        pending_brace[j] = {ScopeKind::kClass, name, -1};
      continue;
    }

    const int fn = in_function();

    // ---- Function definition detection (decl scope only) -------------------
    if (fn < 0 && at_decl_scope() && i >= detect_resume && i + 1 < n &&
        t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "(" &&
        !is_call_excluded_keyword(tok.text) && tok.text != "operator") {
      // Name and any explicit A::B:: qualifier chain walking back.
      std::string name = tok.text;
      std::vector<std::string> quals;
      std::size_t back = i;
      while (back >= 2 && t[back - 1].kind == TokKind::kPunct && t[back - 1].text == "::" &&
             t[back - 2].kind == TokKind::kIdent) {
        quals.insert(quals.begin(), t[back - 2].text);
        back -= 2;
      }
      if (back >= 1 && t[back - 1].kind == TokKind::kPunct && t[back - 1].text == "~")
        name = "~" + name;

      const std::size_t close = matching(t, i + 1, "(", ")");
      if (close < n) {
        // Skip the decoration between `)` and the body `{` (or a terminator).
        std::size_t j = close + 1;
        bool is_def = false;
        while (j < n) {
          const Token& d = t[j];
          if (d.kind == TokKind::kPunct && d.text == "{") {
            is_def = true;
            break;
          }
          if (d.kind == TokKind::kPunct &&
              (d.text == ";" || d.text == "," || d.text == "=" || d.text == ")"))
            break;
          if (d.kind == TokKind::kPunct && d.text == ":") {
            // Constructor init list: ident (...)|{...} groups, comma-joined.
            ++j;
            while (j < n) {
              while (j < n && (t[j].kind == TokKind::kIdent ||
                               (t[j].kind == TokKind::kPunct &&
                                (t[j].text == "::" || t[j].text == "<" || t[j].text == ">"))))
                ++j;
              if (j >= n || t[j].kind != TokKind::kPunct) break;
              if (t[j].text == "(")
                j = matching(t, j, "(", ")") + 1;
              else if (t[j].text == "{")
                j = matching(t, j, "{", "}") + 1;
              else
                break;
              if (j < n && t[j].text == ",") {
                ++j;
                continue;
              }
              break;
            }
            if (j < n && t[j].text == "{") is_def = true;
            break;
          }
          if (d.kind == TokKind::kPunct && d.text == "(") {
            j = matching(t, j, "(", ")") + 1;  // noexcept(...)
            continue;
          }
          // const / noexcept / override / final / -> trailing return / & && * < >
          ++j;
        }
        detect_resume = j + 1;
        if (is_def && j < n) {
          FunctionDecl f;
          f.name = name;
          f.explicit_quals = quals;
          f.line = tok.line;
          f.end_line = tok.line;
          f.body_begin = j;
          f.body_end = matching(t, j, "{", "}");
          if (f.body_end >= n) f.body_end = n - 1;
          std::string scope;
          bool in_class = false;
          bool anon_ns = false;
          for (const Scope& s : scopes) {
            if (s.kind == ScopeKind::kNamespace) {
              if (s.name.empty())
                anon_ns = true;
              else
                scope += (scope.empty() ? "" : "::") + s.name;
            } else if (s.kind == ScopeKind::kClass) {
              in_class = true;
              scope += (scope.empty() ? "" : "::") + s.name;
            }
          }
          f.scope = scope;
          f.is_method = in_class;  // Class:: quals are classified repo-wide later
          // `static` shortly before the name (outside a param list) → internal.
          for (std::size_t k = back; k > 0 && k + 12 > back; --k) {
            const Token& p = t[k - 1];
            if (p.kind == TokKind::kPunct &&
                (p.text == ";" || p.text == "}" || p.text == "{" || p.text == ")"))
              break;
            if (p.kind == TokKind::kIdent && p.text == "static") f.internal = true;
          }
          if (anon_ns) f.internal = true;
          pending_brace[j] = {ScopeKind::kFunction, name,
                              static_cast<int>(idx.functions.size())};
          idx.functions.push_back(std::move(f));
        }
      }
      continue;
    }

    if (fn < 0) continue;
    FunctionDecl& f = idx.functions[static_cast<std::size_t>(fn)];

    // ---- Facts inside a function body --------------------------------------

    // throw <Type>(...)
    if (tok.text == "throw") {
      if (i + 1 < n && t[i + 1].kind == TokKind::kPunct && t[i + 1].text == ";") continue;
      std::string last;
      for (std::size_t j = i + 1;
           j < n && (t[j].kind == TokKind::kIdent ||
                     (t[j].kind == TokKind::kPunct && t[j].text == "::"));
           ++j)
        if (t[j].kind == TokKind::kIdent) last = t[j].text;
      if (!last.empty()) f.throws.push_back({tok.line, i, last});
      continue;
    }

    // try { ... } catch (...) { ... }
    if (tok.text == "try" && i + 1 < n && t[i + 1].text == "{") {
      TryRegion region;
      region.body_begin = i + 1;
      region.body_end = matching(t, i + 1, "{", "}");
      std::size_t j = region.body_end + 1;
      while (j + 1 < n && t[j].kind == TokKind::kIdent && t[j].text == "catch" &&
             t[j + 1].text == "(") {
        const std::size_t close = matching(t, j + 1, "(", ")");
        std::string type_last;
        bool all = false;
        for (std::size_t k = j + 2; k < close; ++k) {
          if (t[k].kind == TokKind::kPunct && t[k].text == "...") all = true;
          if (t[k].kind == TokKind::kIdent && t[k].text != "const") {
            // The type's last component is the ident before & / * (or the
            // last ident when caught by value with no parameter name).
            if (k + 1 < n && t[k + 1].kind == TokKind::kPunct &&
                (t[k + 1].text == "&" || t[k + 1].text == "*"))
              type_last = t[k].text;
            else if (type_last.empty())
              type_last = t[k].text;
          }
        }
        if (type_last == "exception" || type_last == "Error") all = true;
        if (all)
          region.catches_all = true;
        else if (!type_last.empty())
          region.caught.push_back(type_last);
        std::size_t body = close + 1;
        j = (body < n && t[body].text == "{") ? matching(t, body, "{", "}") + 1 : body;
      }
      f.tries.push_back(std::move(region));
      // Do not `continue`: the body tokens are revisited for calls/loops.
    }

    // for/while/do loop bodies.
    if (tok.text == "for" || tok.text == "while" || tok.text == "do") {
      LoopRef loop;
      loop.line = tok.line;
      if (tok.text == "do") {
        if (i + 1 >= n || t[i + 1].text != "{") continue;
        loop.body_begin = i + 1;
        loop.body_end = matching(t, i + 1, "{", "}");
      } else {
        if (i + 1 >= n || t[i + 1].text != "(") continue;
        const std::size_t close = matching(t, i + 1, "(", ")");
        if (close >= n) continue;
        std::size_t body = close + 1;
        if (body < n && t[body].text == "{") {
          loop.body_begin = body;
          loop.body_end = matching(t, body, "{", "}");
        } else {
          loop.body_begin = body;
          std::size_t e = body;
          while (e < n && t[e].text != ";") ++e;
          loop.body_end = e;
        }
      }
      if (loop.body_end >= n) loop.body_end = n - 1;
      f.loops.push_back(loop);
      continue;
    }

    // Budget polls.
    if (tok.text == "interrupted" || tok.text == "expired" || tok.text == "cancelled" ||
        (tok.text == "check" && i > 0 && t[i - 1].kind == TokKind::kPunct &&
         (t[i - 1].text == "." || t[i - 1].text == "->"))) {
      f.polls_budget = true;
      f.poll_toks.push_back(i);
    }

    // Atomic memory orders: memory_order_relaxed or memory_order::relaxed.
    if (starts_with(tok.text, "memory_order")) {
      std::string order;
      if (starts_with(tok.text, "memory_order_")) {
        order = tok.text.substr(13);
      } else if (tok.text == "memory_order" && i + 2 < n && t[i + 1].text == "::" &&
                 t[i + 2].kind == TokKind::kIdent) {
        order = t[i + 2].text;
      }
      if (!order.empty()) {
        f.atomics.push_back({tok.line, order, false, false});
        atomic_toks.emplace_back(fn, i);
      }
      continue;
    }

    // Call sites.
    if (i + 1 < n && t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "(" &&
        !is_call_excluded_keyword(tok.text)) {
      CallRef call;
      call.line = tok.line;
      call.tok = i;
      call.name = tok.text;
      if (i > 0 && t[i - 1].kind == TokKind::kPunct) {
        if (t[i - 1].text == "." || t[i - 1].text == "->")
          call.is_method = true;
        else if (t[i - 1].text == "::" && i > 1 && t[i - 2].kind == TokKind::kIdent)
          call.qualifier = t[i - 2].text;
      }
      f.calls.push_back(std::move(call));
    }
  }

  // Post-pass: atomic in_loop and justification from comments.
  {
    std::map<int, std::size_t> nth;  // fn index -> next atomic slot
    for (auto [fn_i, tok_idx] : atomic_toks) {
      FunctionDecl& f = idx.functions[static_cast<std::size_t>(fn_i)];
      const std::size_t k = nth[fn_i]++;
      if (k >= f.atomics.size()) continue;
      AtomicOrderRef& a = f.atomics[k];
      // Inside the body extent, or on the loop-header line itself — a
      // `while (flag.load(...))` condition executes every iteration too.
      for (const LoopRef& loop : f.loops)
        if ((tok_idx >= loop.body_begin && tok_idx <= loop.body_end) || a.line == loop.line)
          a.in_loop = true;
      for (const Comment& c : file.comments) {
        const int end = comment_end_line(c);
        // Trailing comment on the same line, or a comment ending on one of
        // the two preceding lines, that states an ordering rationale.
        if (end >= a.line - 2 && c.line <= a.line && is_order_rationale(c.text))
          a.justified = true;
      }
    }
  }
  for (FunctionDecl& f : idx.functions) {
    for (const Comment& c : file.comments) {
      const int end = comment_end_line(c);
      // Rationale comment inside the body or in the doc block directly above.
      if (end >= f.line - 2 && c.line <= f.end_line && is_order_rationale(c.text))
        f.has_order_rationale = true;
    }
    if (f.has_order_rationale)
      for (AtomicOrderRef& a : f.atomics) a.justified = true;
  }

  std::sort(idx.namespaces.begin(), idx.namespaces.end());
  idx.namespaces.erase(std::unique(idx.namespaces.begin(), idx.namespaces.end()),
                       idx.namespaces.end());
  return idx;
}

}  // namespace csq::lint
