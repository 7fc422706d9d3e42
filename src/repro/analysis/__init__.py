"""Per-figure analyses reproducing the paper's evaluation.

One module per figure plus the headline summary statistics:

========  ==================================================  =============
Exp id    Paper artifact                                      Module
========  ==================================================  =============
fig1      active devices/day by device type                   fig1_active_devices
fig2      mean & median bytes per active device/day by type   fig2_bytes_per_device
fig3      normalized median per-device volume per hour-of-    fig3_hour_of_week
          week, four sample weeks
fig4      median bytes/device excl. Zoom, intl vs domestic    fig4_subpopulation
fig5      daily aggregate Zoom traffic                        fig5_zoom
fig6a-c   monthly mobile session-duration boxes (FB/IG/TT)    fig6_social
fig7a-b   monthly Steam bytes & connections boxes             fig7_steam
fig8      3-day moving average of Switch gameplay traffic     fig8_switch
stats     Section 4/5 headline numbers                        summary
========  ==================================================  =============
"""

from repro.analysis.common import (
    device_day_bitmap,
    month_day_mask,
    per_device_day_bytes,
    post_shutdown_device_mask,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.fig1_active_devices import Fig1Result, compute_fig1
from repro.analysis.fig2_bytes_per_device import Fig2Result, compute_fig2
from repro.analysis.fig3_hour_of_week import Fig3Result, compute_fig3
from repro.analysis.fig4_subpopulation import Fig4Result, compute_fig4
from repro.analysis.fig5_zoom import Fig5Result, compute_fig5
from repro.analysis.fig6_social import Fig6Result, compute_fig6
from repro.analysis.fig7_steam import Fig7Result, compute_fig7
from repro.analysis.fig8_switch import Fig8Result, compute_fig8
from repro.analysis.summary import SummaryStats, compute_summary

__all__ = [
    "AnalysisContext",
    "Fig1Result", "Fig2Result", "Fig3Result", "Fig4Result", "Fig5Result",
    "Fig6Result", "Fig7Result", "Fig8Result", "SummaryStats",
    "compute_fig1", "compute_fig2", "compute_fig3", "compute_fig4",
    "compute_fig5", "compute_fig6", "compute_fig7", "compute_fig8",
    "compute_summary", "device_day_bitmap", "month_day_mask",
    "per_device_day_bytes", "post_shutdown_device_mask",
]
