#include "lint_core.hpp"

#include <algorithm>
#include <cctype>

namespace rdp::lint {

namespace {

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Index of the last non-whitespace character before `pos`, or npos.
size_t prev_sig(const std::string& s, size_t pos) {
    while (pos > 0) {
        --pos;
        if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
    }
    return std::string::npos;
}

/// Index of the first non-whitespace character at/after `pos`, or npos.
size_t next_sig(const std::string& s, size_t pos) {
    while (pos < s.size()) {
        if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return pos;
        ++pos;
    }
    return std::string::npos;
}

struct Token {
    std::string_view text;
    size_t pos = 0;
    int line = 1;
};

std::vector<Token> identifiers(const std::string& s) {
    std::vector<Token> out;
    int line = 1;
    for (size_t i = 0; i < s.size();) {
        if (s[i] == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (is_ident_char(s[i]) &&
            std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
            const size_t b = i;
            while (i < s.size() && is_ident_char(s[i])) ++i;
            out.push_back({std::string_view(s).substr(b, i - b), b, line});
        } else {
            ++i;
        }
    }
    return out;
}

/// Keywords that can directly precede an expression; an identifier after
/// one of these is a use, not a declared name, and one before `::` means
/// the `::` is global-scope (e.g. `return ::getenv(...)`).
bool is_expr_keyword(std::string_view w) {
    return w == "return" || w == "else" || w == "do" || w == "case" ||
           w == "throw" || w == "co_return" || w == "co_yield" ||
           w == "co_await";
}

/// Identifier ending at index `e` (inclusive) in `s`.
std::string_view ident_ending_at(const std::string& s, size_t e) {
    size_t b = e;
    while (b > 0 && is_ident_char(s[b - 1])) --b;
    return std::string_view(s).substr(b, e - b + 1);
}

/// How an identifier call is qualified: `std::f` / `::f` (flagged), a
/// member access `x.f` / `x->f`, another namespace `foo::f`, or bare `f`.
enum class Qual { StdOrGlobal, Member, OtherScope, Bare };

Qual qualifier_of(const std::string& s, size_t tok_pos) {
    size_t p = prev_sig(s, tok_pos);
    if (p == std::string::npos) return Qual::Bare;
    if (s[p] == '.') return Qual::Member;
    if (s[p] == '>' && p > 0 && s[p - 1] == '-') return Qual::Member;
    if (s[p] == ':' && p > 0 && s[p - 1] == ':') {
        const size_t q = prev_sig(s, p - 1);
        if (q == std::string::npos || !is_ident_char(s[q]))
            return Qual::StdOrGlobal;  // global-scope ::f
        const std::string_view w = ident_ending_at(s, q);
        if (w == "std") return Qual::StdOrGlobal;
        // `return ::f(...)`: the keyword is not a namespace qualifier.
        if (is_expr_keyword(w)) return Qual::StdOrGlobal;
        return Qual::OtherScope;
    }
    return Qual::Bare;
}

/// A bare identifier directly preceded by another identifier is (almost
/// always) being declared — `double exp(double)` — not called.
bool looks_like_declaration(const std::string& s, size_t tok_pos) {
    const size_t p = prev_sig(s, tok_pos);
    if (p == std::string::npos || !is_ident_char(s[p])) return false;
    return !is_expr_keyword(ident_ending_at(s, p));
}

bool followed_by_call(const std::string& s, const Token& t) {
    const size_t n = next_sig(s, t.pos + t.text.size());
    return n != std::string::npos && s[n] == '(';
}

void add(std::vector<Finding>& out, const char* check, const std::string& path,
         int line, std::string message) {
    out.push_back({check, path, line, std::move(message)});
}

// ---- rdp-raw-exp ----------------------------------------------------------

void check_raw_exp(const std::string& stripped, const std::string& path,
                   std::vector<Finding>& out) {
    static constexpr std::string_view kFns[] = {"exp",   "expf",  "expl",
                                                "exp2",  "expm1", "fma",
                                                "fmaf",  "fmal"};
    for (const Token& t : identifiers(stripped)) {
        if (std::find(std::begin(kFns), std::end(kFns), t.text) ==
            std::end(kFns))
            continue;
        if (!followed_by_call(stripped, t)) continue;
        const Qual q = qualifier_of(stripped, t.pos);
        if (q == Qual::Member || q == Qual::OtherScope) continue;
        if (q == Qual::Bare && looks_like_declaration(stripped, t.pos))
            continue;
        add(out, "rdp-raw-exp", path, t.line,
            "raw " + std::string(t.text) +
                "() call; exp must go through rdp::simd::stable_exp and "
                "fused multiply-adds through the RDP_SIMD_FMA-gated "
                "mul_add helpers (util/simd.hpp), or SIMD backends stop "
                "being bitwise identical");
    }
}

// ---- rdp-unordered-iteration ----------------------------------------------

bool is_unordered_type(std::string_view id) {
    return id == "unordered_map" || id == "unordered_set" ||
           id == "unordered_multimap" || id == "unordered_multiset";
}

/// Variable names declared with an unordered container type in this file.
std::vector<std::string> unordered_decl_names(const std::string& s) {
    std::vector<std::string> names;
    for (const Token& t : identifiers(s)) {
        if (!is_unordered_type(t.text)) continue;
        size_t i = next_sig(s, t.pos + t.text.size());
        if (i == std::string::npos || s[i] != '<') continue;
        int depth = 0;
        while (i < s.size()) {  // skip the balanced template argument list
            if (s[i] == '<') ++depth;
            if (s[i] == '>' && --depth == 0) break;
            ++i;
        }
        if (i >= s.size()) continue;
        ++i;
        // Skip ref/pointer decorations and cv keywords before the name.
        while (true) {
            i = next_sig(s, i);
            if (i == std::string::npos) break;
            if (s[i] == '&' || s[i] == '*') {
                ++i;
                continue;
            }
            break;
        }
        if (i == std::string::npos || !is_ident_char(s[i])) continue;
        size_t b = i;
        while (i < s.size() && is_ident_char(s[i])) ++i;
        std::string name = s.substr(b, i - b);
        if (name == "const") continue;
        names.push_back(std::move(name));
    }
    return names;
}

bool contains_token(std::string_view hay, std::string_view needle) {
    size_t p = 0;
    while ((p = hay.find(needle, p)) != std::string_view::npos) {
        const bool lb = p == 0 || !is_ident_char(hay[p - 1]);
        const bool rb = p + needle.size() == hay.size() ||
                        !is_ident_char(hay[p + needle.size()]);
        if (lb && rb) return true;
        p += needle.size();
    }
    return false;
}

void check_unordered_iteration(const std::string& stripped,
                               const std::string& path,
                               std::vector<Finding>& out) {
    const std::vector<std::string> names = unordered_decl_names(stripped);
    const std::vector<Token> toks = identifiers(stripped);
    for (const Token& t : toks) {
        // Range-for whose range expression names an unordered container.
        if (t.text == "for") {
            size_t i = next_sig(stripped, t.pos + t.text.size());
            if (i == std::string::npos || stripped[i] != '(') continue;
            int depth = 0;
            size_t close = i;
            while (close < stripped.size()) {
                if (stripped[close] == '(') ++depth;
                if (stripped[close] == ')' && --depth == 0) break;
                ++close;
            }
            if (close >= stripped.size()) continue;
            // Top-level ':' (not '::') separates declaration from range.
            size_t colon = std::string::npos;
            depth = 0;
            for (size_t k = i; k < close; ++k) {
                const char c = stripped[k];
                if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
                if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
                if (c == ':' && depth == 1) {
                    if (k + 1 < close && stripped[k + 1] == ':') {
                        ++k;
                        continue;
                    }
                    if (k > 0 && stripped[k - 1] == ':') continue;
                    colon = k;
                    break;
                }
            }
            if (colon == std::string::npos) continue;
            const std::string_view range =
                std::string_view(stripped).substr(colon + 1, close - colon - 1);
            const bool hits_decl =
                std::any_of(names.begin(), names.end(),
                            [&](const std::string& n) {
                                return contains_token(range, n);
                            });
            if (hits_decl || range.find("unordered_") != std::string_view::npos)
                add(out, "rdp-unordered-iteration", path, t.line,
                    "range-for over a std::unordered_ container: hash order "
                    "is not deterministic; copy into a sorted/indexed "
                    "container before iterating (DESIGN.md §9)");
        }
        // Explicit iterator walk: container.begin() on a declared name.
        if ((t.text == "begin" || t.text == "cbegin" || t.text == "rbegin") &&
            followed_by_call(stripped, t) &&
            qualifier_of(stripped, t.pos) == Qual::Member) {
            const size_t dot = prev_sig(stripped, t.pos);
            if (dot == std::string::npos) continue;
            const size_t recv_end =
                prev_sig(stripped, stripped[dot] == '>' ? dot - 1 : dot);
            if (recv_end == std::string::npos ||
                !is_ident_char(stripped[recv_end]))
                continue;
            size_t b = recv_end;
            while (b > 0 && is_ident_char(stripped[b - 1])) --b;
            const std::string recv = stripped.substr(b, recv_end - b + 1);
            if (std::find(names.begin(), names.end(), recv) != names.end())
                add(out, "rdp-unordered-iteration", path, t.line,
                    "iterator walk over std::unordered_ container '" + recv +
                        "': hash order is not deterministic (DESIGN.md "
                        "§9)");
        }
    }
}

// ---- rdp-raw-thread -------------------------------------------------------

void check_raw_thread(const std::string& stripped, const std::string& path,
                      std::vector<Finding>& out) {
    for (const Token& t : identifiers(stripped)) {
        const bool std_prim =
            (t.text == "thread" || t.text == "jthread" || t.text == "async" ||
             t.text == "execution") &&
            qualifier_of(stripped, t.pos) == Qual::StdOrGlobal;
        const bool pthread = t.text == "pthread_create";
        if (std_prim || pthread)
            add(out, "rdp-raw-thread", path, t.line,
                "raw threading primitive (" +
                    (std_prim ? "std::" + std::string(t.text)
                              : std::string(t.text)) +
                    "); all parallelism must go through the deterministic "
                    "rdp::par:: chunk layer (util/parallel.hpp, DESIGN.md "
                    "§9)");
        if (t.text == "omp") {
            // Only flag inside an `#pragma omp` directive.
            size_t ls = stripped.rfind('\n', t.pos);
            ls = ls == std::string::npos ? 0 : ls + 1;
            const std::string_view linev =
                std::string_view(stripped).substr(ls, t.pos - ls);
            if (linev.find("#pragma") != std::string_view::npos)
                add(out, "rdp-raw-thread", path, t.line,
                    "OpenMP pragma; all parallelism must go through the "
                    "deterministic rdp::par:: chunk layer (DESIGN.md "
                    "§9)");
        }
    }
}

// ---- rdp-raw-getenv -------------------------------------------------------

void check_raw_getenv(const std::string& stripped, const std::string& path,
                      std::vector<Finding>& out) {
    for (const Token& t : identifiers(stripped)) {
        if (t.text != "getenv" && t.text != "secure_getenv") continue;
        if (qualifier_of(stripped, t.pos) == Qual::Member) continue;
        add(out, "rdp-raw-getenv", path, t.line,
            "raw " + std::string(t.text) +
                "(); every knob must use the strict rdp::env parsing "
                "layer (util/env.hpp) so malformed values warn and fall "
                "back deterministically");
    }
}

// ---- rdp-env-reader -------------------------------------------------------

void check_env_reader(const std::string& stripped, const std::string& path,
                      std::vector<Finding>& out) {
    static constexpr std::string_view kReaders[] = {
        "raw", "int_or", "double_or", "flag_or", "choice_or"};
    for (const Token& t : identifiers(stripped)) {
        if (std::find(std::begin(kReaders), std::end(kReaders), t.text) ==
            std::end(kReaders))
            continue;
        if (!followed_by_call(stripped, t)) continue;
        // Qualified by the env namespace: `env::raw(` / `rdp::env::raw(`.
        const size_t p = prev_sig(stripped, t.pos);
        if (p == std::string::npos || p == 0 || stripped[p] != ':' ||
            stripped[p - 1] != ':')
            continue;
        const size_t q = prev_sig(stripped, p - 1);
        if (q == std::string::npos || ident_ending_at(stripped, q) != "env")
            continue;
        add(out, "rdp-env-reader", path, t.line,
            "env::" + std::string(t.text) +
                "() outside the files that resolve configuration; a run "
                "knob is read once, in GlobalPlacer::place() "
                "(resolve_run_config), and every stage reads the resolved "
                "PlacerConfig (DESIGN.md §15)");
    }
}

// ---- rdp-thread-local -----------------------------------------------------

void check_thread_local(const std::string& stripped, const std::string& path,
                        std::vector<Finding>& out) {
    for (const Token& t : identifiers(stripped)) {
        if (t.text != "thread_local") continue;
        add(out, "rdp-thread-local", path, t.line,
            "thread_local storage; scratch is owned by the caller (a "
            "router slot, a workspace passed in), so its memory stays "
            "bounded and freed with its owner and a placer stays "
            "reentrant (DESIGN.md §17)");
    }
}

// ---- rdp-raw-file-write ---------------------------------------------------

/// True when the token sits on a preprocessor directive line: `#include
/// <fstream>` must not count as a use of std::fstream.
bool on_pp_directive(const std::string& s, size_t tok_pos) {
    size_t ls = s.rfind('\n', tok_pos);
    ls = ls == std::string::npos ? 0 : ls + 1;
    const size_t first = next_sig(s, ls);
    return first != std::string::npos && first < tok_pos && s[first] == '#';
}

void check_raw_file_write(const std::string& stripped,
                          const std::string& path,
                          std::vector<Finding>& out) {
    for (const Token& t : identifiers(stripped)) {
        const Qual q = qualifier_of(stripped, t.pos);
        const bool stream_type =
            (t.text == "ofstream" || t.text == "fstream" ||
             t.text == "basic_ofstream" || t.text == "basic_fstream") &&
            (q == Qual::StdOrGlobal || q == Qual::Bare) &&
            !on_pp_directive(stripped, t.pos);
        const bool cstdio_open =
            (t.text == "fopen" || t.text == "freopen") &&
            followed_by_call(stripped, t) && q != Qual::Member &&
            q != Qual::OtherScope &&
            !(q == Qual::Bare && looks_like_declaration(stripped, t.pos));
        if (!stream_type && !cstdio_open) continue;
        add(out, "rdp-raw-file-write", path, t.line,
            "raw file write (" + std::string(t.text) +
                "); every file under src/ must be published through "
                "rdp::io::atomic_write (util/io_atomic.hpp) so a crash "
                "can never leave a torn or half-written file "
                "(DESIGN.md §16)");
    }
}

// ---- rdp-hot-loop-alloc ---------------------------------------------------

void check_hot_loop_alloc(const std::string& stripped, const std::string& path,
                          std::vector<Finding>& out) {
    static constexpr std::string_view kAllocFns[] = {
        "malloc", "calloc", "realloc", "aligned_alloc", "strdup"};
    static constexpr std::string_view kGrowth[] = {
        "push_back", "emplace_back", "resize", "reserve",
        "insert",    "emplace",      "assign", "append"};
    static constexpr std::string_view kContainers[] = {"vector", "string",
                                                       "basic_string", "map",
                                                       "set", "deque", "list"};
    for (const Token& t : identifiers(stripped)) {
        if (t.text == "new") {
            add(out, "rdp-hot-loop-alloc", path, t.line,
                "new-expression in a kernel header; kernels run inside "
                "parallel regions on caller-owned scratch and must not "
                "allocate");
            continue;
        }
        const Qual q = qualifier_of(stripped, t.pos);
        if (std::find(std::begin(kAllocFns), std::end(kAllocFns), t.text) !=
                std::end(kAllocFns) &&
            followed_by_call(stripped, t)) {
            add(out, "rdp-hot-loop-alloc", path, t.line,
                std::string(t.text) + "() in a kernel header; kernels must "
                                      "not allocate");
            continue;
        }
        if (std::find(std::begin(kGrowth), std::end(kGrowth), t.text) !=
                std::end(kGrowth) &&
            q == Qual::Member && followed_by_call(stripped, t)) {
            add(out, "rdp-hot-loop-alloc", path, t.line,
                "container growth call ." + std::string(t.text) +
                    "() in a kernel header; size/allocate in the caller, "
                    "pass raw spans into the kernel");
            continue;
        }
        if (std::find(std::begin(kContainers), std::end(kContainers),
                      t.text) != std::end(kContainers) &&
            q == Qual::StdOrGlobal) {
            add(out, "rdp-hot-loop-alloc", path, t.line,
                "std::" + std::string(t.text) +
                    " in a kernel header; kernels operate on caller-owned "
                    "raw pointers/scratch, never owning containers");
        }
    }
}

bool path_contains(const std::string& path, std::string_view needle) {
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p.find(needle) != std::string::npos;
}

bool is_kernel_header(const std::string& path) {
    return path_contains(path, "wa_kernel.hpp") ||
           path_contains(path, "splat_kernel.hpp") ||
           path_contains(path, "fft_kernel.hpp") ||
           path_contains(path, "dct_kernel.hpp");
}

/// The files allowed to read the environment: the env layer itself, the
/// run-config resolver, and the process-wide knobs (threads, log level,
/// audit switch, fault and crash harnesses).
bool may_read_env(const std::string& path) {
    static constexpr std::string_view kFiles[] = {
        "util/env.cpp",      "place/global_placer.cpp",
        "util/parallel.cpp", "util/log.cpp",
        "util/check.cpp",    "recover/fault_injection.cpp",
        "recover/kill_points.cpp"};
    return std::any_of(
        std::begin(kFiles), std::end(kFiles),
        [&](std::string_view f) { return path_contains(path, f); });
}

}  // namespace

const std::vector<std::string>& all_checks() {
    static const std::vector<std::string> kChecks = {
        "rdp-raw-exp", "rdp-unordered-iteration", "rdp-raw-thread",
        "rdp-raw-getenv", "rdp-env-reader", "rdp-raw-file-write",
        "rdp-hot-loop-alloc", "rdp-thread-local"};
    return kChecks;
}

std::string strip_comments_and_strings(const std::string& source) {
    std::string out = source;
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string raw_delim;  // for R"delim( ... )delim"
    for (size_t i = 0; i < source.size(); ++i) {
        const char c = source[i];
        const char n = i + 1 < source.size() ? source[i + 1] : '\0';
        switch (st) {
            case St::Code:
                if (c == '/' && n == '/') {
                    st = St::Line;
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == '/' && n == '*') {
                    st = St::Block;
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == '"') {
                    // Raw string? Identify the R prefix (also u8R, LR, ...).
                    size_t r = i;
                    while (r > 0 && is_ident_char(source[r - 1])) --r;
                    const std::string_view prefix =
                        std::string_view(source).substr(r, i - r);
                    if (!prefix.empty() && prefix.back() == 'R') {
                        st = St::Raw;
                        raw_delim.clear();
                        size_t k = i + 1;
                        while (k < source.size() && source[k] != '(')
                            raw_delim.push_back(source[k++]);
                        raw_delim = ")" + raw_delim + "\"";
                        for (size_t z = i; z < std::min(k + 1, source.size());
                             ++z)
                            if (out[z] != '\n') out[z] = ' ';
                        i = std::min(k, source.size() - 1);
                    } else {
                        st = St::Str;
                        out[i] = ' ';
                    }
                } else if (c == '\'') {
                    // Digit separator (1'000) or numeric suffix, not a char
                    // literal, when directly preceded by a digit.
                    if (i > 0 &&
                        std::isdigit(static_cast<unsigned char>(
                            source[i - 1])) != 0)
                        break;
                    st = St::Chr;
                    out[i] = ' ';
                }
                break;
            case St::Line:
                if (c == '\n')
                    st = St::Code;
                else
                    out[i] = ' ';
                break;
            case St::Block:
                if (c == '*' && n == '/') {
                    st = St::Code;
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::Str:
                if (c == '\\') {
                    out[i] = ' ';
                    if (n != '\0' && n != '\n') {
                        out[i + 1] = ' ';
                        ++i;
                    }
                } else if (c == '"') {
                    st = St::Code;
                    out[i] = ' ';
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::Chr:
                if (c == '\\') {
                    out[i] = ' ';
                    if (n != '\0' && n != '\n') {
                        out[i + 1] = ' ';
                        ++i;
                    }
                } else if (c == '\'') {
                    st = St::Code;
                    out[i] = ' ';
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::Raw:
                if (source.compare(i, raw_delim.size(), raw_delim) == 0) {
                    for (size_t z = i; z < i + raw_delim.size(); ++z)
                        if (out[z] != '\n') out[z] = ' ';
                    i += raw_delim.size() - 1;
                    st = St::Code;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
        }
    }
    return out;
}

std::vector<Finding> run_check(std::string_view check, const std::string& path,
                               const std::string& content) {
    const std::string stripped = strip_comments_and_strings(content);
    std::vector<Finding> out;
    if (check == "rdp-raw-exp") check_raw_exp(stripped, path, out);
    if (check == "rdp-unordered-iteration")
        check_unordered_iteration(stripped, path, out);
    if (check == "rdp-raw-thread") check_raw_thread(stripped, path, out);
    if (check == "rdp-raw-getenv") check_raw_getenv(stripped, path, out);
    if (check == "rdp-env-reader") check_env_reader(stripped, path, out);
    if (check == "rdp-raw-file-write")
        check_raw_file_write(stripped, path, out);
    if (check == "rdp-hot-loop-alloc")
        check_hot_loop_alloc(stripped, path, out);
    if (check == "rdp-thread-local") check_thread_local(stripped, path, out);
    return out;
}

std::vector<Finding> run_file(const std::string& path,
                              const std::string& content) {
    std::vector<Finding> out;
    const std::string stripped = strip_comments_and_strings(content);
    // The simd layer is the one place allowed to touch raw exp/fma; the
    // parallel layer is the one place allowed to own threads and
    // thread-local state; the env parser is the one place allowed to call
    // getenv, and may_read_env() lists the files allowed to call its
    // readers; the atomic-write helper is the one place allowed to open a
    // file for writing.
    if (!path_contains(path, "util/simd.")) check_raw_exp(stripped, path, out);
    check_unordered_iteration(stripped, path, out);
    if (!path_contains(path, "util/parallel."))
        check_raw_thread(stripped, path, out);
    if (!path_contains(path, "util/env.cpp"))
        check_raw_getenv(stripped, path, out);
    if (!may_read_env(path)) check_env_reader(stripped, path, out);
    if (!path_contains(path, "util/io_atomic."))
        check_raw_file_write(stripped, path, out);
    if (is_kernel_header(path)) check_hot_loop_alloc(stripped, path, out);
    if (!path_contains(path, "util/parallel.cpp"))
        check_thread_local(stripped, path, out);
    return out;
}

}  // namespace rdp::lint
