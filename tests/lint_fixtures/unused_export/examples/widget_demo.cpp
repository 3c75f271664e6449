#include "widget/widget.h"

int main() { return fixture::widget_area(); }
