#!/usr/bin/env python3
"""Self-test for the textual scans in tools/reachability.py.

The option-field and test-only-function scans read C++ as text, so the
shapes they must read (default member initialisers, brace initialisers,
inline methods, constructors, operators, nested types, template arguments
with parentheses, comments, string literals) and the assignments and calls
they must count are pinned here on fixture text. Stdlib-only, needs no
build, and registered with CTest as `reachability_selftest`.

Run directly:  python3 tools/test_reachability.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reachability  # noqa: E402

HEADER = """
// struct CommentedOptions { int hidden; };
struct FooOptions {
  int a = 1;  ///< trailing doc comment: int not_a_field;
  std::vector<int> b{1, 2};
  double c;
  /* int also_not_a_field = 2; */
  std::function<void(int)> callback;
  std::map<std::string, std::pair<int, int>> nested_template;
  void method() const { int local = 0; (void)local; }
  static constexpr int kMax = 3;
  struct Inner {
    int z = 0;
  };
  Inner inner;
  using Alias = int;
  FooOptions() = default;
  bool operator==(const FooOptions&) const = default;
 public:
  int d = 2;
};

struct NotAnOptionsStruct {
  int ignored;
};

class Engine {
 public:
  struct Options {
    double alpha = 0.5;
  };
  explicit Engine(Options options);
};

class BarConfig : public Base {
 public:
  bool e = false;
};
"""


class OptionFieldsTest(unittest.TestCase):
    def test_reads_every_data_member_and_nothing_else(self):
        self.assertEqual(
            list(reachability.option_fields(HEADER)),
            [("FooOptions", "a"), ("FooOptions", "b"), ("FooOptions", "c"),
             ("FooOptions", "callback"), ("FooOptions", "nested_template"),
             ("FooOptions", "inner"), ("FooOptions", "d"),
             ("Options", "alpha"), ("BarConfig", "e")])

    def test_forward_declaration_has_no_fields(self):
        self.assertEqual(list(reachability.option_fields(
            "struct FooOptions;\nint x = 1;\n")), [])


class UnsetOptionFieldsTest(unittest.TestCase):
    def unset(self, *setters):
        return [field for _, field in reachability.unset_option_fields(
            {"src/foo.h": HEADER}, setters)]

    def test_nothing_set_lists_every_field(self):
        self.assertEqual(len(self.unset()), 9)

    def test_assignment_forms_count_as_set(self):
        unset = self.unset(
            "opts.a = 3;",                     # member assignment
            "cfg->c += 1.0;",                  # through a pointer, compound
            "Foo f{.b = {}, .callback = g};",  # designated initialisers
            "engine.options().alpha=0.1;",     # no spaces
            "x.inner.z = 4; y.opts.e = true;")  # chains set every link
        self.assertEqual(unset, ["FooOptions.d", "FooOptions.nested_template"])

    def test_comparisons_and_comments_do_not_count(self):
        unset = self.unset("if (opts.d == 2) return;",
                           "// opts.nested_template = {};",
                           "/* opts.a = 1; */ bool ok = x.c <= 1;")
        self.assertIn("FooOptions.d", unset)
        self.assertIn("FooOptions.nested_template", unset)
        self.assertIn("FooOptions.a", unset)
        self.assertIn("FooOptions.c", unset)

    def test_result_is_sorted_and_keyed_by_header(self):
        result = reachability.unset_option_fields(
            {"src/b.h": "struct BOptions { int y; };",
             "src/a.h": "struct AConfig { int x; int w; };"}, [])
        self.assertEqual(result, [("src/a.h", "AConfig.w"),
                                  ("src/a.h", "AConfig.x"),
                                  ("src/b.h", "BOptions.y")])


FUNCTIONS_HEADER = r"""
#pragma once
#define DRCELL_FAKE(x) int fake_##x() { return 0; }
namespace drcell::core {

// int commented_out() { return 0; }
class Widget final : public Base<int> {
 public:
  Widget() : size_(0) {}
  explicit Widget(std::size_t n) : size_(n) { resize(n); }
  ~Widget() { clear(); }
  std::size_t size() const { return size_; }
  std::size_t tested_only() const { return size_ + 1; }
  std::size_t never_called() const { return 0; }
  const std::string& label() const { static const std::string s = "{"; return s; }
  bool operator==(const Widget& o) const { return size_ == o.size_; }
  explicit operator bool() const { return size_ != 0; }
  template <typename T>
  T cast() const noexcept { return static_cast<T>(size_); }
  std::size_t declared_only() const;

  struct Inner {
    int depth() const { if (x) { return 1; } return 0; }
    int x = 0;
  };

 private:
  std::size_t size_;
  std::vector<int> values_{1, 2};
};

enum class Mode { kA, kB };

inline std::size_t Widget::declared_only() const { return size(); }

inline int free_helper(int x) { return x * 2; }

const auto kLambda = [](int x) { return x; };

}  // namespace drcell::core
"""


class ScanDefinitionsTest(unittest.TestCase):
    def test_lists_functions_defined_with_a_body(self):
        functions, _ = reachability.scan_definitions(FUNCTIONS_HEADER)
        self.assertEqual(functions, [
            "Widget::size", "Widget::tested_only", "Widget::never_called",
            "Widget::label", "Widget::cast", "Inner::depth",
            "Widget::declared_only", "free_helper"])

    def test_bodies_hold_the_calls_and_skip_scopes(self):
        _, bodies = reachability.scan_definitions(FUNCTIONS_HEADER)
        calls = set()
        for body in bodies:
            calls.update(reachability.CALL.findall(body))
        self.assertIn("resize", calls)  # a constructor body
        self.assertIn("clear", calls)   # a destructor body
        self.assertIn("size", calls)    # an out-of-class definition
        self.assertNotIn("commented_out", calls)
        self.assertNotIn("fake_", calls)


class TestOnlyFunctionsTest(unittest.TestCase):
    def listed(self, sources=(), production=(), tests=()):
        return [f for _, f in reachability.test_only_functions(
            {"src/widget.h": FUNCTIONS_HEADER},
            (FUNCTIONS_HEADER,) + tuple(sources), production, tests)]

    def test_lists_what_only_tests_call(self):
        self.assertEqual(
            self.listed(tests=["EXPECT_EQ(w.tested_only(), 1u);",
                                  "EXPECT_EQ(free_helper(2), 4);"]),
            ["Widget::tested_only", "free_helper"])

    def test_production_calls_clear_a_name(self):
        tests = ["w.tested_only(); p->label(); free_helper(1);"]
        self.assertEqual(self.listed(
            sources=["int f(const Widget& w) { return w.tested_only(); }"],
            production=["int main() { return free_helper(0); }"],
            tests=tests), ["Widget::label"])

    def test_members_need_a_member_call_in_tests(self):
        # A local named like a member is a declaration, not a call; the
        # never-called function and a name in a test comment are not
        # listed either.
        self.assertEqual(self.listed(
            tests=["Matrix tested_only(2, 2);", "// w.never_called();",
                   'const char* s = "w.label()";']), [])

    def test_declaration_in_src_does_not_count_as_a_call(self):
        self.assertEqual(self.listed(
            sources=["std::size_t tested_only();"],
            tests=["w.tested_only();"]), ["Widget::tested_only"])


if __name__ == "__main__":
    unittest.main()
