#!/usr/bin/env python3
"""Self-test for the option-field scan in tools/reachability.py.

The scan is textual, so the C++ shapes it must read (default member
initialisers, brace initialisers, inline methods, nested types, template
arguments with parentheses, comments) and the assignments it must count as
setting a field are pinned here on fixture text. Stdlib-only, needs no
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


if __name__ == "__main__":
    unittest.main()
