// unused-export fixture: the src/ header whose declarations need callers.
// Linted with display paths relative to unused_export/ (see lint_test.cc).
#pragma once

namespace fixture {

int widget_count();   // called from bench/: clean
int widget_area();    // called from examples/: clean
int widget_volume();  // called only from tests/: finding
int widget_orphan();  // called from nowhere: finding
int widget_helper();  // called only inside widget.cc: "make it file-local"

// storsim-lint: allow(unused-export) reason=docs/API.md entry
int widget_documented();

// storsim-lint: allow(unused-export)
int widget_unexplained();

class Widget {
 public:
  int size() const { return resize_to(1); }

 private:
  int resize_to(int n) const { return n; }  // private: not exported
};

}  // namespace fixture
