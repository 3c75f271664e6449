#include "widget/widget.h"

int main() { return fixture::widget_volume() == 4 ? 0 : 1; }
