#include "widget/widget.h"

namespace fixture {

int widget_helper() { return 2; }
int widget_count() { return widget_helper(); }
int widget_area() { return 3; }
int widget_volume() { return 4; }
int widget_orphan() { return 5; }
int widget_documented() { return 6; }
int widget_unexplained() { return 7; }

}  // namespace fixture
